package fl_test

import (
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/core"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/population"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// warmBoundary builds an eager run with the FLOAT controller, a metric
// registry and a timeline, steps it to its third boundary and snapshots it
// once, so the next CheckpointState is a warm one. The sync run selects
// with Oort, whose section writes every kind of keyed map.
func warmBoundary(tb testing.TB, async bool) checkpoint.Stateful {
	tb.Helper()
	lazy, err := population.NewLazy(population.Config{Dataset: "femnist", Clients: 32, Alpha: 0.1, Seed: 29,
		Scenario: trace.ScenarioDynamic})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := population.WrapEager(lazy.Materialize())
	if err != nil {
		tb.Fatal(err)
	}
	reg := obs.NewRegistry()
	p.Instrument(reg)
	cfg := fl.Config{Arch: "resnet18", Rounds: 6, ClientsPerRound: 5, Epochs: 1, BatchSize: 8, LR: 0.1,
		EvalEvery: 3, Seed: 5, Parallelism: 1, Metrics: reg, Timeline: obs.NewTimeline(reg, 64),
		Checkpoint: &fl.CheckpointConfig{}}
	var sel selection.Selector
	if async {
		cfg.Concurrency, cfg.BufferK = 10, 3
	} else {
		sel = selection.NewOort(7)
	}
	ctrl := core.New(core.Config{Agent: rl.Config{Seed: 7, TotalRounds: cfg.Rounds},
		BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, ClientsPerRound: cfg.ClientsPerRound, Metrics: reg})
	r, err := fl.WarmRun(async, p, sel, ctrl, cfg, 3)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.CheckpointState(); err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestWarmBoundaryAllocatesNothing: once a run has written a snapshot of
// its state, writing the next one allocates nothing on either engine —
// every section is appended into the run's own frame.
func TestWarmBoundaryAllocatesNothing(t *testing.T) {
	for _, async := range []bool{false, true} {
		r := warmBoundary(t, async)
		if n := testing.AllocsPerRun(5, func() {
			if _, err := r.CheckpointState(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("async=%v: a warm boundary snapshot made %v allocations, want 0", async, n)
		}
	}
}

// BenchmarkBoundarySnapshot times one warm async boundary snapshot — the
// write side of FedBuff's per-aggregation checkpoint — with its B/op and
// allocs/op.
func BenchmarkBoundarySnapshot(b *testing.B) {
	r := warmBoundary(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := r.CheckpointState(); err != nil {
			b.Fatal(err)
		}
	}
}
