package selection

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/rngstate"
	"floatfl/internal/trace"
)

// fakeView is a dense PopulationView for selector tests, counting how many
// distinct clients a selector actually derived and recording the order of
// its probes.
type fakeView struct {
	clients []*device.Client
	touched map[int]bool
	probes  []int
}

func newFakeView(t *testing.T, n int, seed int64) *fakeView {
	t.Helper()
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: n, Scenario: trace.ScenarioDynamic, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeView{clients: pop, touched: make(map[int]bool)}
}

func (v *fakeView) NumClients() int { return len(v.clients) }
func (v *fakeView) Client(id int) *device.Client {
	v.touched[id] = true
	v.probes = append(v.probes, id)
	return v.clients[id]
}

func checkSelection(t *testing.T, ids []int, view *fakeView, round, k int) {
	t.Helper()
	if len(ids) > k {
		t.Fatalf("selected %d ids, want ≤ %d", len(ids), k)
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d in selection", id)
		}
		seen[id] = true
		if id < 0 || id >= view.NumClients() {
			t.Fatalf("id %d out of range", id)
		}
		if !view.clients[id].ResourcesAt(round).Available {
			t.Fatalf("selected unavailable client %d", id)
		}
	}
}

// twin pairs a selector under test with a same-seeded instance driven
// through its hand-written one-at-a-time walk (lazy_ref_test.go).
type twin struct {
	sel        LazySelector
	pos        func() uint64 // the selector's RNG position
	refSelect  func(RoundInfo, PopulationView, int) []int
	refObserve func(Feedback)
	refPos     func() uint64
	refState   func() ([]byte, error)
}

// TestLazySelectorsContract runs every built-in selector through a few
// lazy rounds with feedback, asserting the LazySelector contract: distinct
// in-range available IDs, and a probe count that is O(k), not
// O(population). Beside each runs its one-at-a-time twin: walking the
// candidates through Probe must move nothing — selection, RNG position,
// probe sequence and checkpoint bytes are the twin's.
func TestLazySelectorsContract(t *testing.T) {
	const n, k = 5000, 10
	random, randomRef := NewRandom(3), NewRandom(3)
	oort, oortRef := NewOort(4), NewOort(4)
	refl, reflRef := NewREFL(5), NewREFL(5)
	selectors := map[string]twin{
		"random": {random, random.rng.Pos, randomRef.selectLazyOneAtATime, randomRef.Observe, randomRef.rng.Pos, randomRef.CheckpointState},
		"oort":   {oort, oort.rng.Pos, oortRef.selectLazyOneAtATime, oortRef.Observe, oortRef.rng.Pos, oortRef.CheckpointState},
		"refl":   {refl, refl.rng.Pos, reflRef.selectLazyOneAtATime, reflRef.Observe, reflRef.rng.Pos, reflRef.CheckpointState},
	}
	names := make([]string, 0, len(selectors))
	for name := range selectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tw := selectors[name]
		sel := tw.sel
		t.Run(name, func(t *testing.T) {
			view, refView := newFakeView(t, n, 11), newFakeView(t, n, 11)
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 5; round++ {
				info := RoundInfo{Round: round, DeadlineSec: 120}
				ids := sel.SelectLazy(info, view, k)
				checkSelection(t, ids, view, round, k)
				if len(ids) == 0 {
					t.Fatalf("round %d: selected nothing from a %d-client population", round, n)
				}
				if want := tw.refSelect(info, refView, k); !reflect.DeepEqual(ids, want) {
					t.Fatalf("round %d: selected %v, one-at-a-time walk selects %v", round, ids, want)
				}
				if got, want := tw.pos(), tw.refPos(); got != want {
					t.Fatalf("round %d: RNG at draw %d, one-at-a-time walk at %d", round, got, want)
				}
				if !reflect.DeepEqual(view.probes, refView.probes) {
					t.Fatalf("round %d: probe sequence differs from the one-at-a-time walk", round)
				}
				view.probes, refView.probes = nil, nil
				for _, id := range ids {
					fb := Feedback{
						ClientID: id,
						Round:    round,
						Outcome: device.Outcome{
							Completed: rng.Float64() < 0.7,
							Cost:      device.Cost{TotalSeconds: 10 + 50*rng.Float64()},
						},
						StatUtility: rng.Float64(),
					}
					sel.Observe(fb)
					tw.refObserve(fb)
				}
			}
			state, err := sel.(interface{ CheckpointState() ([]byte, error) }).CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := tw.refState(); !bytes.Equal(state, want) {
				t.Fatalf("selector state after 5 rounds differs from the one-at-a-time twin:\n got %s\nwant %s", state, want)
			}
			// The point of lazy selection: a 5000-client population must not
			// be scanned. Budget: 5 rounds × (8k+64) probes plus slack.
			if got, bound := len(view.touched), 5*(8*k+64)+k; got > bound {
				t.Fatalf("selector derived %d clients over 5 rounds, want ≤ %d (O(selected), not O(population))", got, bound)
			}
		})
	}
}

// TestRandomLazyDeterministic pins that SelectLazy is a pure function of
// (seed, access sequence).
func TestRandomLazyDeterministic(t *testing.T) {
	run := func() [][]int {
		sel := NewRandom(9)
		view := newFakeView(t, 1000, 13)
		var out [][]int
		for round := 0; round < 4; round++ {
			out = append(out, sel.SelectLazy(RoundInfo{Round: round}, view, 8))
		}
		return out
	}
	a, b := run(), run()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("round %d: lengths differ", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("round %d slot %d: %d vs %d", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestPermSamplerIsPermutation exhausts the sampler and checks it emits
// each element exactly once.
func TestPermSamplerIsPermutation(t *testing.T) {
	ps := NewPermSampler(rngstate.New(2), 257)
	seen := make(map[int]bool)
	for {
		v, ok := ps.Next()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d emitted twice", v)
		}
		if v < 0 || v >= 257 {
			t.Fatalf("value %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 257 {
		t.Fatalf("emitted %d distinct values, want 257", len(seen))
	}
}
