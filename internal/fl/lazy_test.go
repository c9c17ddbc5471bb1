package fl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/obs"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// lazyPopConfig is the small-scale lazy population every equivalence test
// uses: large enough to exercise selection and dropouts, small enough to
// materialize for the eager reference, with a cache far smaller than the
// population so eviction/re-derivation is constantly exercised.
func lazyPopConfig(clients int) population.Config {
	return population.Config{
		Dataset:      "femnist",
		Clients:      clients,
		Alpha:        0.1,
		Seed:         29,
		Scenario:     trace.ScenarioDynamic,
		CacheClients: 4,
	}
}

// lazyEagerPair builds a lazy population and an eager population backed by
// its materialization — the same client universe held two different ways.
func lazyEagerPair(t *testing.T, clients int) (lazy, eager *population.Population) {
	t.Helper()
	lazy, err := population.NewLazy(lazyPopConfig(clients))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := population.NewLazy(lazyPopConfig(clients))
	if err != nil {
		t.Fatal(err)
	}
	fed, pop := ref.Materialize()
	eager, err = population.WrapEager(fed, pop)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// ledgerAggregates flattens a ledger's mode-independent surface so sparse
// (lazy) and dense (eager) ledgers can be compared for semantic equality.
type ledgerAggregates struct {
	totalRounds, totalDrops, discarded        int
	neverSel, neverComp, gini, jain, dropRate float64
	wall                                      float64
	wasted                                    metrics.Inefficiency
}

func aggregatesOf(l *metrics.Ledger) ledgerAggregates {
	return ledgerAggregates{
		totalRounds: l.TotalRounds,
		totalDrops:  l.TotalDrops,
		discarded:   l.Discarded,
		neverSel:    l.NeverSelectedFraction(),
		neverComp:   l.NeverCompletedFraction(),
		gini:        l.SelectionGini(),
		jain:        l.SelectionJainIndex(),
		dropRate:    l.DropRate(),
		wall:        l.WallClockSeconds,
		wasted:      l.TotalInefficiency(),
	}
}

// assertLazyEagerIdentical requires bit-for-bit equality of everything the
// two runs report except the ledger representation, which is compared
// through its semantic surface (aggregates + per-client tallies).
func assertLazyEagerIdentical(t *testing.T, label string, lazyRes, eagerRes *Result, clients int) {
	t.Helper()
	if !reflect.DeepEqual(lazyRes.FinalParams, eagerRes.FinalParams) {
		t.Errorf("%s: FinalParams differ — lazy derivation is not bit-identical to eager state", label)
	}
	if !reflect.DeepEqual(lazyRes.GlobalAccHistory, eagerRes.GlobalAccHistory) {
		t.Errorf("%s: GlobalAccHistory differs:\n  lazy=%v\n  eager=%v", label, lazyRes.GlobalAccHistory, eagerRes.GlobalAccHistory)
	}
	if !reflect.DeepEqual(lazyRes.FinalClientAccs, eagerRes.FinalClientAccs) {
		t.Errorf("%s: FinalClientAccs differ", label)
	}
	if lazyRes.FinalGlobalAcc != eagerRes.FinalGlobalAcc {
		t.Errorf("%s: FinalGlobalAcc %v vs %v", label, lazyRes.FinalGlobalAcc, eagerRes.FinalGlobalAcc)
	}
	if lazyRes.WallClockSeconds != eagerRes.WallClockSeconds {
		t.Errorf("%s: WallClockSeconds %v vs %v", label, lazyRes.WallClockSeconds, eagerRes.WallClockSeconds)
	}
	if lazyRes.DeadlineSec != eagerRes.DeadlineSec {
		t.Errorf("%s: DeadlineSec %v vs %v", label, lazyRes.DeadlineSec, eagerRes.DeadlineSec)
	}
	if !lazyRes.Ledger.Sparse() {
		t.Errorf("%s: lazy run should carry a sparse ledger", label)
	}
	if eagerRes.Ledger.Sparse() {
		t.Errorf("%s: eager run should carry a dense ledger", label)
	}
	if la, ea := aggregatesOf(lazyRes.Ledger), aggregatesOf(eagerRes.Ledger); la != ea {
		t.Errorf("%s: ledger aggregates differ:\n  lazy=%+v\n  eager=%+v", label, la, ea)
	}
	for id := 0; id < clients; id++ {
		if lazyRes.Ledger.SelectedCount(id) != eagerRes.Ledger.SelectedCount(id) {
			t.Fatalf("%s: client %d selected %d lazy vs %d eager", label, id,
				lazyRes.Ledger.SelectedCount(id), eagerRes.Ledger.SelectedCount(id))
		}
		if lazyRes.Ledger.CompletedCount(id) != eagerRes.Ledger.CompletedCount(id) {
			t.Fatalf("%s: client %d completed %d lazy vs %d eager", label, id,
				lazyRes.Ledger.CompletedCount(id), eagerRes.Ledger.CompletedCount(id))
		}
	}
}

// TestRunSyncLazyMatchesEager is the tentpole acceptance test: a lazy run
// (tiny cache, constant eviction and re-derivation) must produce the same
// bits as an eager run over the materialized population — final
// parameters, accuracy trajectories, wall clock, per-client ledger, and
// the JSONL run log. forceLazySelection routes the eager run through the
// same SelectLazy schedule so the comparison isolates state derivation.
func TestRunSyncLazyMatchesEager(t *testing.T) {
	const clients = 48
	for _, selName := range []string{"random", "oort"} {
		t.Run(selName, func(t *testing.T) {
			newSel := func() selection.Selector {
				if selName == "oort" {
					return selection.NewOort(selection.OortConfig{Seed: 7})
				}
				return selection.NewRandom(7)
			}
			run := func(p *population.Population, forceLazy bool) (*Result, string) {
				var buf bytes.Buffer
				cfg := parSyncConfig(4)
				cfg.forceLazySelection = forceLazy
				cfg.Logger = NewJSONLLogger(&buf)
				res, err := RunSyncPop(p, newSel(), newFeedbackDriven(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.String()
			}
			lazy, eager := lazyEagerPair(t, clients)
			lazyRes, lazyLog := run(lazy, false)
			eagerRes, eagerLog := run(eager, true)
			assertLazyEagerIdentical(t, "sync "+selName, lazyRes, eagerRes, clients)
			if lazyLog != eagerLog {
				t.Errorf("JSONL logs differ (%d vs %d bytes)", len(lazyLog), len(eagerLog))
			}
		})
	}
}

// TestRunAsyncLazyMatchesEager mirrors the sync equivalence for the
// FedBuff engine: forceLazySelection routes the eager run through the same
// probe-budgeted permutation launcher, so both runs share the event
// schedule and must agree bit-for-bit.
func TestRunAsyncLazyMatchesEager(t *testing.T) {
	const clients = 48
	run := func(p *population.Population, forceLazy bool) (*Result, string) {
		var buf bytes.Buffer
		cfg := parSyncConfig(4)
		cfg.Rounds = 5
		cfg.Concurrency = 12
		cfg.BufferK = 4
		cfg.forceLazySelection = forceLazy
		cfg.Logger = NewJSONLLogger(&buf)
		res, err := RunAsyncPop(p, newFeedbackDriven(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	lazy, eager := lazyEagerPair(t, clients)
	lazyRes, lazyLog := run(lazy, false)
	eagerRes, eagerLog := run(eager, true)
	assertLazyEagerIdentical(t, "async", lazyRes, eagerRes, clients)
	if lazyLog != eagerLog {
		t.Errorf("JSONL logs differ (%d vs %d bytes)", len(lazyLog), len(eagerLog))
	}
}

// TestLazyTelemetryParallelismInvariant extends the determinism contract
// to the population-cache metrics and to derive-ahead: a lazy run's full
// exposition — engine counters plus pop_cache_* series — its final
// parameters, ledger, run log and a mid-run snapshot must be byte-identical
// across Parallelism. At P = 1 every derivation happens inline on the
// dispatch thread; at P = 8 selection's probe batches and dispatch's shards
// are derived ahead on the workers — for every selector, under a 6-client
// cache that evicts between a batch's peek and its use. Cache *mutation*
// happens only on the single-threaded passes either way, and is flushed at
// schedule-determined points.
func TestLazyTelemetryParallelismInvariant(t *testing.T) {
	type out struct {
		res            *Result
		metrics, log   string
		midRunSnapshot []byte
	}
	selectors := map[string]func() selection.Selector{
		"random": func() selection.Selector { return selection.NewRandom(7) },
		"oort":   func() selection.Selector { return selection.NewOort(selection.OortConfig{Seed: 7}) },
		"refl":   func() selection.Selector { return selection.NewREFL(selection.REFLConfig{Seed: 7}) },
	}
	run := func(t *testing.T, sel selection.Selector, par int) out {
		pc := lazyPopConfig(48)
		pc.CacheClients = 6
		p, err := population.NewLazy(pc)
		if err != nil {
			t.Fatal(err)
		}
		var o out
		var logBuf bytes.Buffer
		cfg := parSyncConfig(par)
		cfg.Metrics = obs.NewRegistry()
		cfg.Logger = NewJSONLLogger(&logBuf)
		cfg.Checkpoint = &CheckpointConfig{Every: 3, Sink: func(b []byte) error {
			if o.midRunSnapshot == nil {
				o.midRunSnapshot = b
			}
			return nil
		}}
		p.Instrument(cfg.Metrics)
		if o.res, err = RunSyncPop(p, sel, newCkptCtrl(), cfg); err != nil {
			t.Fatal(err)
		}
		var mb bytes.Buffer
		if err := cfg.Metrics.WriteText(&mb); err != nil {
			t.Fatal(err)
		}
		o.metrics, o.log = mb.String(), logBuf.String()
		return o
	}
	for name, newSel := range selectors {
		t.Run(name, func(t *testing.T) {
			o1, o8 := run(t, newSel(), 1), run(t, newSel(), 8)
			if o1.metrics != o8.metrics {
				t.Errorf("lazy metrics exposition differs between P=1 and P=8:\n--- P=1 ---\n%s--- P=8 ---\n%s", o1.metrics, o8.metrics)
			}
			if !reflect.DeepEqual(o1.res.FinalParams, o8.res.FinalParams) {
				t.Error("FinalParams differ between P=1 and P=8")
			}
			if !reflect.DeepEqual(o1.res.Ledger, o8.res.Ledger) {
				t.Error("ledgers differ between P=1 and P=8")
			}
			if o1.log != o8.log {
				t.Errorf("JSONL logs differ between P=1 and P=8 (%d vs %d bytes)", len(o1.log), len(o8.log))
			}
			if len(o1.midRunSnapshot) == 0 || !bytes.Equal(o1.midRunSnapshot, o8.midRunSnapshot) {
				t.Errorf("mid-run snapshots differ between P=1 and P=8 (%d vs %d bytes)", len(o1.midRunSnapshot), len(o8.midRunSnapshot))
			}
			for _, series := range []string{
				`pop_cache_hits_total{kind="shard"}`,
				`pop_cache_misses_total{kind="device"}`,
				`pop_cache_evictions_total{kind="shard"}`,
				`pop_resident_clients{kind="device"}`,
				`pop_derive_samples_count`,
			} {
				if !strings.Contains(o1.metrics, series) {
					t.Errorf("exposition missing %s:\n%s", series, o1.metrics)
				}
			}
			// A 6-client cache under a 48-client population must actually
			// evict — a zero counter would mean the run never thrashed the
			// cache and the byte-equality above proved nothing about eviction
			// accounting.
			for _, kind := range []string{"shard", "device"} {
				if strings.Contains(o1.metrics, `pop_cache_evictions_total{kind="`+kind+`"} 0`+"\n") {
					t.Errorf("%s cache never evicted; exposition:\n%s", kind, o1.metrics)
				}
			}
		})
	}
}

// TestRunSyncPopLazyRequiresLazySelector pins the error path: a lazy
// population cannot run behind a selector that needs the dense pool.
func TestRunSyncPopLazyRequiresLazySelector(t *testing.T) {
	p, err := population.NewLazy(lazyPopConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSyncPop(p, eagerOnlySelector{}, NoOpController{}, parSyncConfig(1))
	if err == nil || !strings.Contains(err.Error(), "LazySelector") {
		t.Fatalf("want LazySelector error, got %v", err)
	}
}

// eagerOnlySelector implements only the dense Selector interface.
type eagerOnlySelector struct{}

func (eagerOnlySelector) Name() string { return "eager-only" }
func (eagerOnlySelector) Select(selection.RoundInfo, []*device.Client, int) []int {
	return nil
}
func (eagerOnlySelector) Observe(selection.Feedback) {}
