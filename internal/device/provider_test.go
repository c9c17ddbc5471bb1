package device

import (
	"testing"

	"floatfl/internal/trace"
)

// clientStateEqual compares the observable state of two clients over a
// time horizon, bit-exactly.
func clientStateEqual(t *testing.T, a, b *Client, horizon int) {
	t.Helper()
	if a.ID != b.ID || a.NetKind != b.NetKind || a.Compute != b.Compute {
		t.Fatalf("client %d: static fields differ", a.ID)
	}
	for s := 0; s <= horizon; s++ {
		ra, rb := a.ResourcesAt(s), b.ResourcesAt(s)
		if ra != rb {
			t.Fatalf("client %d step %d: resources %+v vs %+v", a.ID, s, ra, rb)
		}
	}
}

// TestDeriveClientOrderIndependent: deriving device clients in any order
// yields the same state; they match nothing *sequential* (NewPopulation
// keeps its legacy stream for golden compatibility), but each derived
// client must be self-consistent across orders and re-derivations.
func TestDeriveClientOrderIndependent(t *testing.T) {
	cfg := PopulationConfig{Clients: 20, Scenario: trace.ScenarioDynamic, Seed: 11}
	// Derivation order must not matter: derive 13 after 2 vs before 2.
	a13 := DeriveClient(cfg, 13)
	_ = DeriveClient(cfg, 2)
	b13 := DeriveClient(cfg, 13)
	clientStateEqual(t, a13, b13, 50)
}

// TestProviderEvictionReplaysDrains is the heart of the lazy device
// contract: a client that trained (drained battery), was evicted, and is
// re-derived must be bit-identical to one that stayed resident the whole
// time.
func TestProviderEvictionReplaysDrains(t *testing.T) {
	cfg := PopulationConfig{Clients: 40, Scenario: trace.ScenarioDynamic, Seed: 7}

	// Reference: a big-cache provider where client 5 is never evicted.
	ref, err := NewProvider(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Thrashing: capacity 1, so touching any other client evicts 5.
	tiny, err := NewProvider(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}

	drain := func(p *Provider, step int) {
		c := p.Client(5)
		c.Avail.Available(step)
		c.Avail.RecordUseAmount(0.12)
	}
	for step := 0; step < 6; step++ {
		drain(ref, step)
		drain(tiny, step)
		// Evict client 5 from the tiny provider between every touch.
		tiny.Client(17 + step)
	}
	if evs := tiny.Stats().Evictions; evs == 0 {
		t.Fatal("tiny cache never evicted; test exercises nothing")
	}
	clientStateEqual(t, ref.Client(5), tiny.Client(5), 30)
}

// TestProviderPinBlocksEviction: a pinned (in-round) client survives
// arbitrary churn and stays the same instance.
func TestProviderPinBlocksEviction(t *testing.T) {
	p, err := NewProvider(PopulationConfig{Clients: 100, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Acquire(42)
	for id := 0; id < 100; id++ {
		p.Client(id)
	}
	if got := p.Client(42); got != c {
		t.Fatal("pinned client was evicted and re-derived mid-round")
	}
	p.Release(42)
	if got, bound := p.Stats().Resident, 3+1; got > bound {
		t.Fatalf("resident %d after release, want ≤ %d", got, bound)
	}
}

// TestMaterializeMatchesProvider: the eager adapter agrees with on-demand
// derivation, including replayed drain history.
func TestMaterializeMatchesProvider(t *testing.T) {
	cfg := PopulationConfig{Clients: 10, Scenario: trace.ScenarioStatic, Seed: 5}
	p, err := NewProvider(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	c3 := p.Client(3)
	c3.Avail.Available(2)
	c3.Avail.RecordUseAmount(0.2)
	for id := 0; id < 10; id++ { // churn 3 out
		p.Client(id)
	}
	all := p.Materialize()
	if len(all) != 10 {
		t.Fatalf("materialized %d clients, want 10", len(all))
	}
	clientStateEqual(t, all[3], p.Client(3), 25)
}

// TestEstimateCleanMatchesFullDerivation: the set-up estimate derives only
// the head of the client stream, and must read exactly what a whole client
// would have given it — the auto deadline is built from these numbers.
func TestEstimateCleanMatchesFullDerivation(t *testing.T) {
	cfg := PopulationConfig{Clients: 1 << 20, Scenario: trace.ScenarioDynamic, Seed: 31}
	p, err := NewProvider(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkSpec{RefFLOPsPerSample: 2_000_000, RefParams: 400_000, Samples: 120, Epochs: 2}
	for i := 0; i < 1024; i++ {
		id := i * cfg.Clients / 1024
		got, want := p.EstimateClean(id, w), EstimateCleanResponseSeconds(DeriveClient(cfg, id), w)
		if got != want {
			t.Fatalf("client %d: clean estimate %v from the partial derivation, %v from the full one", id, got, want)
		}
	}
	if st := p.Stats(); st.Resident != 0 || st.Misses != 0 {
		t.Fatalf("estimates touched the cache: %+v", st)
	}
}

// TestStageFeedsMissesOnce: a staged client is what the next miss returns,
// with the drain log replayed onto it at that point; a hit ignores staging;
// what a pass leaves unconsumed is gone after the next Stage.
func TestStageFeedsMissesOnce(t *testing.T) {
	cfg := PopulationConfig{Clients: 40, Scenario: trace.ScenarioDynamic, Seed: 7}
	ref, err := NewProvider(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range []*Provider{ref, p} {
		c := pr.Client(5)
		c.Avail.Available(3)
		c.Avail.RecordUseAmount(0.3)
	}
	p.Client(6) // evicts 5 into the drain store
	ids := []int{6, 5, 8}
	staged := []*Client{p.Derive(6), p.Derive(5), p.Derive(8)}
	p.Stage(ids, staged)
	if p.Client(6) == staged[0] {
		t.Error("a hit returned the staged client, not the resident one")
	}
	got := p.Client(5)
	if got != staged[1] {
		t.Error("a miss re-derived instead of taking the staged client")
	}
	clientStateEqual(t, ref.Client(5), got, 30)
	p.Stage(nil, nil)
	if len(p.staged) != 0 {
		t.Errorf("%d entries survived the next Stage", len(p.staged))
	}
	if p.Client(8) == staged[2] {
		t.Error("after the drop a miss must derive inline")
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Errorf("stats %+v, want 1 hit and 4 misses: staging must not count", st)
	}
}
