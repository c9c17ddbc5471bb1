package fl

import (
	"math/rand"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// simRound runs one client round on ctx the way the engines' fan-out does.
func simRound(ctx *trainContext, delta tensor.Vector, proto *nn.Model, before tensor.Vector,
	shard, localTest []nn.Sample, tech opt.Technique, cfg Config, round, clientID int) (LocalResult, error) {
	lt, _, err := simRoundGrid(ctx, delta, proto, before, shard, localTest, tech, cfg, round, clientID, nil)
	return lt, err
}

// simRoundGrid is simRound recording the update's grid into codes, as
// floatd's client does.
func simRoundGrid(ctx *trainContext, delta tensor.Vector, proto *nn.Model, before tensor.Vector,
	shard, localTest []nn.Sample, tech opt.Technique, cfg Config, round, clientID int, codes []int16) (LocalResult, opt.Grid, error) {
	tc, rng := ctx.reseed(proto, cfg, round, clientID)
	return TrainLocal(ctx.local, before, delta, ctx.applied, shard, localTest, tech, tc, rng, codes)
}

// TestTrainLocalAllocatesNothing pins the steady-state client round
// against a warm trainContext at zero allocations, for every technique:
// the context owns the local model and scratch, the slot owns the delta
// buffer, nn.Train reuses its RNG/order/gradient state, and pruning takes
// its magnitude scratch from opt's free list. The telemetry ops the
// engines issue per client round (counter increment, histogram observe)
// run inside the measured body too, so the instrumented hot path is
// covered. With a codes buffer, as floatd's client passes, the round and
// the warm grid encode of its update allocate nothing either.
func TestTrainLocalAllocatesNothing(t *testing.T) {
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 8, Alpha: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Arch: "resnet18", Rounds: 1, ClientsPerRound: 1,
		Epochs: 2, BatchSize: 16, LR: 0.1, Seed: 5,
	}.withDefaults()
	proto, err := nn.NewModel(cfg.Arch, fed.Profile.Dim, fed.Profile.Classes,
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	before := proto.Parameters().Clone()
	pool := newContextPool(proto)
	pool.ensure(1, 1)

	reg := obs.NewRegistry()
	trainCalls := reg.Counter("fl_train_calls_total")
	computeHist := reg.Histogram("device_compute_seconds", []float64{1, 5, 15, 30, 60})

	codes := make([]int16, len(before))
	var wire []byte
	for _, tech := range opt.All() {
		for _, grid := range []bool{false, true} {
			name := tech.String()
			if grid {
				name += "/codes"
			}
			t.Run(name, func(t *testing.T) {
				// AllocsPerRun's own warm-up call builds the context's model
				// and scratch, and grows wire, before counting starts.
				allocs := testing.AllocsPerRun(10, func() {
					trainCalls.Inc()
					if !grid {
						if _, err := simRound(pool.ctx(0), pool.delta(0), proto, before,
							fed.Train[0], fed.LocalTest[0], tech, cfg, 1, 0); err != nil {
							t.Fatal(err)
						}
					} else {
						lt, grid, err := simRoundGrid(pool.ctx(0), pool.delta(0), proto, before,
							fed.Train[0], fed.LocalTest[0], tech, cfg, 1, 0, codes)
						if err != nil {
							t.Fatal(err)
						}
						if wire, err = opt.AppendCompressGrid(wire[:0], lt.Delta, grid, 16); err != nil {
							t.Fatal(err)
						}
					}
					computeHist.Observe(12.5)
				})
				if allocs != 0 {
					t.Errorf("warm TrainLocal allocates %.0f objects per client round, want 0", allocs)
				}
			})
		}
	}
}

// TestTrainContextReuseMatchesFreshContext pins the reuse semantics: a
// context that has already executed other client rounds must produce
// bit-identical results to a brand-new one, because every piece of cached
// state (model parameters, RNG streams, order scratch) is re-initialized
// per call.
func TestTrainContextReuseMatchesFreshContext(t *testing.T) {
	fed, _ := testSetup(t, 4, trace.ScenarioNone)
	cfg := smallConfig().withDefaults()
	proto, err := nn.NewModel(cfg.Arch, fed.Profile.Dim, fed.Profile.Classes,
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	before := proto.Parameters().Clone()

	// Warm context: run two unrelated client rounds first.
	warm := &trainContext{}
	warmDelta := make([]float64, proto.NumParams())
	for id := 1; id <= 2; id++ {
		if _, err := simRound(warm, warmDelta, proto, before,
			fed.Train[id], fed.LocalTest[id], opt.TechQuant8, cfg, 0, id); err != nil {
			t.Fatal(err)
		}
	}
	gotWarm, err := simRound(warm, warmDelta, proto, before,
		fed.Train[0], fed.LocalTest[0], opt.TechQuant8, cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}

	fresh := &trainContext{}
	freshDelta := make([]float64, proto.NumParams())
	gotFresh, err := simRound(fresh, freshDelta, proto, before,
		fed.Train[0], fed.LocalTest[0], opt.TechQuant8, cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}

	if gotWarm.Weight != gotFresh.Weight ||
		gotWarm.StatUtility != gotFresh.StatUtility ||
		gotWarm.AccImprove != gotFresh.AccImprove {
		t.Fatalf("warm context result differs: %+v vs %+v", gotWarm, gotFresh)
	}
	for i := range gotWarm.Delta {
		if gotWarm.Delta[i] != gotFresh.Delta[i] {
			t.Fatalf("warm context delta differs at %d: %v vs %v",
				i, gotWarm.Delta[i], gotFresh.Delta[i])
		}
	}
}

// TestContextPoolEnsureGrowsMonotonically checks pool growth and identity
// stability: ensure never shrinks, and existing contexts/buffers keep their
// identity so cached models survive.
func TestContextPoolEnsureGrowsMonotonically(t *testing.T) {
	proto, err := nn.NewModel("mlp-small", 8, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pool := newContextPool(proto)
	pool.ensure(2, 3)
	c0 := pool.ctx(0)
	d0 := &pool.delta(0)[0]
	pool.ensure(4, 8)
	if pool.ctx(0) != c0 {
		t.Fatal("ensure replaced an existing context")
	}
	if &pool.delta(0)[0] != d0 {
		t.Fatal("ensure replaced an existing delta buffer")
	}
	pool.ensure(1, 1)
	if len(pool.workers) != 4 || len(pool.deltas) != 8 {
		t.Fatalf("ensure shrank the pool: %d workers, %d deltas",
			len(pool.workers), len(pool.deltas))
	}
	for slot := 0; slot < 8; slot++ {
		if len(pool.delta(slot)) != proto.NumParams() {
			t.Fatalf("delta %d has %d scalars, want %d",
				slot, len(pool.delta(slot)), proto.NumParams())
		}
	}
}
