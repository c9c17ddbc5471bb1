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
