package device

import (
	"runtime"
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

// TestMaterializeMatchesProvider: the eager adapter agrees with on-demand
// derivation — every client fresh, in ID order.
func TestMaterializeMatchesProvider(t *testing.T) {
	cfg := PopulationConfig{Clients: 10, Scenario: trace.ScenarioStatic, Seed: 5}
	p, err := NewProvider(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := p.Materialize()
	if len(all) != 10 {
		t.Fatalf("materialized %d clients, want 10", len(all))
	}
	for _, id := range []int{3, 0, 9, 3} {
		if all[id].Avail.DrainLog() != nil {
			t.Fatalf("client %d: a materialized client carries a drain log", id)
		}
		clientStateEqual(t, all[id], p.Derive(id), 25)
	}
}

// TestEstimateCleanMatchesFullDerivation: the set-up estimate derives only
// the head of the client stream, and must read exactly what a whole client
// would have given it — the auto deadline is built from these numbers.
func TestEstimateCleanMatchesFullDerivation(t *testing.T) {
	cfg := PopulationConfig{Clients: 1 << 20, Scenario: trace.ScenarioDynamic, Seed: 31}
	p, err := NewProvider(cfg)
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
}

// deriveHorizon is how many rounds deriveAndProbe reads: the lazy-1m
// ladder workload's run length.
const deriveHorizon = 30

// deriveAndProbe is one lazy miss as the engines pay for it: derive the
// client, then read its resources for every round of a run.
func deriveAndProbe(cfg PopulationConfig, id int) (sum float64) {
	c := DeriveClient(cfg, id)
	for t := 0; t <= deriveHorizon; t++ {
		r := c.ResourcesAt(t)
		sum += r.CPUFrac + r.BandwidthMbps + r.Battery
	}
	return sum
}

// BenchmarkDeriveClient reports the time and memory one derived and probed
// client costs.
func BenchmarkDeriveClient(b *testing.B) {
	cfg := PopulationConfig{Clients: 1 << 20, Scenario: trace.ScenarioDynamic, Seed: 7}
	b.ReportAllocs()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += deriveAndProbe(cfg, i%cfg.Clients)
	}
	_ = sum
}

// TestDeriveClientMemory bounds what a derived and probed client
// allocates: about 850 B, the client, its three traces and their RNG
// streams. A trace keeps only its last two steps, so the figure does not
// grow with the rounds probed. The budget sits far below one 4.9 KB RNG
// register, so a field that makes a trace stream (or the client's private
// stream) draw past the point where its register is allocated, or a trace
// that keeps its history again, fails here before it shows as
// lazy-population heap.
func TestDeriveClientMemory(t *testing.T) {
	const n = 512
	const budget = 2 << 10
	cfg := PopulationConfig{Clients: 1 << 20, Scenario: trace.ScenarioDynamic, Seed: 7}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sum float64
	for id := 0; id < n; id++ {
		sum += deriveAndProbe(cfg, id*(cfg.Clients/n))
	}
	runtime.ReadMemStats(&after)
	perClient := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f bytes per derived client probed over %d rounds (checksum %v)", perClient, deriveHorizon+1, sum)
	if perClient > budget {
		t.Errorf("a derived client probed over %d rounds allocates %.0f bytes, budget %d", deriveHorizon+1, perClient, budget)
	}
}

// TestForwardResourcesAllocateNothing pins the other half of the memory
// contract: once derived, a client reads its resources forward, round by
// round and with Execute's look-ahead to t+1, without allocating.
func TestForwardResourcesAllocateNothing(t *testing.T) {
	cfg := PopulationConfig{Clients: 1 << 20, Scenario: trace.ScenarioDynamic, Seed: 7}
	c := DeriveClient(cfg, 12345)
	step := 0
	c.ResourcesAt(step)
	allocs := testing.AllocsPerRun(200, func() {
		step++
		c.ResourcesAt(step)
		c.Avail.Available(step + 1)
	})
	if allocs != 0 {
		t.Fatalf("forward ResourcesAt reads allocate %v times a round, want 0", allocs)
	}
}
