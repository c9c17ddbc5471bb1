package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/trace"
)

func perClientFloat(seed int64) *Float {
	return New(Config{
		Agent:           rl.Config{Seed: seed, TotalRounds: 50},
		BatchSize:       20,
		Epochs:          5,
		ClientsPerRound: 30,
		PerClient:       true,
	})
}

func TestPerClientMode(t *testing.T) {
	f := perClientFloat(1)
	if f.Name() != "float-local" {
		t.Fatalf("per-client name %q", f.Name())
	}
	if f.Agent() != nil {
		t.Fatal("per-client mode must not expose a collective agent")
	}
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: 3, Scenario: trace.ScenarioDynamic, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		for _, c := range pop {
			res := c.ResourcesAt(round)
			tech := f.Decide(round, c, res, 0)
			f.Feedback(round, c, tech, device.Outcome{Completed: true, Resources: res}, 0.1)
		}
	}
	sum := f.Summary()
	if sum.Agents != 3 {
		t.Fatalf("expected 3 per-client agents, got %d", sum.Agents)
	}
	if sum.Updates != 30 {
		t.Fatalf("expected 30 updates across agents, got %d", sum.Updates)
	}
	if sum.States == 0 || sum.MemoryBytes == 0 {
		t.Fatalf("summary missing state/memory accounting: %+v", sum)
	}
	if len(sum.Actions) != len(opt.Actions()) {
		t.Fatalf("merged action summary has %d entries", len(sum.Actions))
	}
}

func TestPerClientIsolation(t *testing.T) {
	// One client's experience must not leak into another's table.
	f := perClientFloat(3)
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: 2, Scenario: trace.ScenarioNone, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := pop[0].ResourcesAt(0)
	tech := f.Decide(0, pop[0], res, 0)
	f.Feedback(0, pop[0], tech, device.Outcome{Completed: true, Resources: res}, 0.5)

	a0 := f.agentFor(pop[0].ID)
	a1 := f.agentFor(pop[1].ID)
	if a0 == a1 {
		t.Fatal("per-client agents must be distinct")
	}
	if a0.Updates() != 1 || a1.Updates() != 0 {
		t.Fatalf("experience leaked: a0=%d a1=%d updates", a0.Updates(), a1.Updates())
	}
}

func TestPerClientSaveLoadRefused(t *testing.T) {
	f := perClientFloat(5)
	var buf bytes.Buffer
	if err := f.SaveAgent(&buf); err == nil {
		t.Fatal("per-client tables must not be exportable")
	}
	if err := f.LoadAgent(&buf); err == nil {
		t.Fatal("per-client tables must not be seedable")
	}
}

func TestCollectiveSummaryMatchesAgent(t *testing.T) {
	f := testFloat(6)
	c := testClient(t)
	for i := 0; i < 15; i++ {
		res := c.ResourcesAt(i)
		tech := f.Decide(i, c, res, 0)
		f.Feedback(i, c, tech, device.Outcome{Completed: i%2 == 0, Resources: res}, 0.1)
	}
	sum := f.Summary()
	if sum.Agents != 1 {
		t.Fatalf("collective mode should report 1 agent, got %d", sum.Agents)
	}
	if sum.Updates != f.Agent().Updates() || sum.States != f.Agent().StatesVisited() {
		t.Fatal("summary disagrees with the collective agent")
	}
}

// TestPerClientCheckpointBytesPinned pins the per-client controller's
// checkpoint encoding — agents and pending decisions in client-ID order,
// with multi-digit client IDs — and requires restore to reproduce it. The
// digest was re-recorded in the commit that follows e8eb0c7 (PR 21), which
// moved the encoding from JSON to checkpoint.Enc sections. Three decisions are left pending, as
// at an async boundary.
func TestPerClientCheckpointBytesPinned(t *testing.T) {
	const want = "4f9c3d65d61032104b1a4035c9f941bb60d57e51deed666182baa61474836eed"
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: 12, Scenario: trace.ScenarioDynamic, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := perClientFloat(1)
	for round := 0; round < 4; round++ {
		for _, c := range pop {
			res := c.ResourcesAt(round)
			tech := f.Decide(round, c, res, 0)
			if round == 3 && c.ID%4 == 2 {
				continue // decided, no feedback yet
			}
			f.Feedback(round, c, tech, device.Outcome{Completed: c.ID%3 != 0, Resources: res}, 0.01*float64(c.ID))
		}
	}
	blob, err := f.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("checkpoint digest %s, want %s", got, want)
	}
	g := perClientFloat(1)
	if err := g.RestoreCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	again, err := g.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(blob) {
		t.Fatal("restored controller re-encodes differently")
	}
}
