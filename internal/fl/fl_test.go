package fl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

func testSetup(t *testing.T, clients int, scenario trace.Scenario) (*data.Federation, []*device.Client) {
	t.Helper()
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: clients, Alpha: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: clients, Scenario: scenario, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fed, pop
}

// runSync and runAsync run the engines over a dense federation/population
// pair, wrapped as an eager population.
func runSync(fed *data.Federation, pop []*device.Client, sel selection.Selector,
	ctrl Controller, cfg Config) (*Result, error) {
	p, err := population.WrapEager(fed, pop)
	if err != nil {
		return nil, err
	}
	return RunSyncPop(p, sel, ctrl, cfg)
}

func runAsync(fed *data.Federation, pop []*device.Client, ctrl Controller, cfg Config) (*Result, error) {
	p, err := population.WrapEager(fed, pop)
	if err != nil {
		return nil, err
	}
	return RunAsyncPop(p, ctrl, cfg)
}

func smallConfig() Config {
	return Config{
		Arch:            "resnet18",
		Rounds:          12,
		ClientsPerRound: 8,
		Epochs:          2,
		BatchSize:       16,
		LR:              0.1,
		EvalEvery:       4,
		Seed:            5,
	}
}

func parSyncConfig(par int) Config {
	cfg := smallConfig()
	cfg.Rounds = 6
	cfg.Parallelism = par
	return cfg
}

func TestRunSyncBasics(t *testing.T) {
	fed, pop := testSetup(t, 24, trace.ScenarioDynamic)
	res, err := runSync(fed, pop, selection.NewRandom(1), NoOpController{}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "fedavg" || res.Controller != "none" {
		t.Fatalf("labels wrong: %s/%s", res.Algorithm, res.Controller)
	}
	if res.Ledger.TotalRounds != 12*8 {
		t.Fatalf("client-rounds = %d, want 96", res.Ledger.TotalRounds)
	}
	if len(res.GlobalAccHistory) == 0 || len(res.GlobalAccHistory) != len(res.EvalRounds) {
		t.Fatalf("eval history malformed: %d points, %d rounds",
			len(res.GlobalAccHistory), len(res.EvalRounds))
	}
	if len(res.FinalClientAccs) != 24 {
		t.Fatalf("final client accs = %d, want 24", len(res.FinalClientAccs))
	}
	if res.DeadlineSec <= 0 {
		t.Fatal("auto deadline not derived")
	}
	if res.WallClockSeconds <= 0 {
		t.Fatal("wall clock not accumulated")
	}
	if res.FinalAccStats.Top10 < res.FinalAccStats.Bottom10 {
		t.Fatal("accuracy stats ordering violated")
	}
}

func TestRunSyncLearns(t *testing.T) {
	fed, pop := testSetup(t, 24, trace.ScenarioNone)
	cfg := smallConfig()
	cfg.Rounds = 20
	cfg.DeadlineSec = 1e9 // no dropouts: isolate the learning dynamics
	res, err := runSync(fed, pop, selection.NewRandom(2), NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.GlobalAccHistory[0]
	last := res.GlobalAccHistory[len(res.GlobalAccHistory)-1]
	if last <= first {
		t.Fatalf("global accuracy did not improve: %v -> %v", first, last)
	}
	chance := 1.0 / float64(fed.Profile.Classes)
	if last < chance*2 {
		t.Fatalf("final accuracy %v barely above chance %v", last, chance)
	}
	// An infinite deadline rules out deadline dropouts; availability and
	// energy dropouts can still occur (Random ignores availability).
	if n := res.Ledger.DropsByReason[device.DropDeadline]; n != 0 {
		t.Fatalf("infinite deadline still recorded %d deadline drops", n)
	}
}

func TestRunSyncTightDeadlineDrops(t *testing.T) {
	fed, pop := testSetup(t, 24, trace.ScenarioDynamic)
	cfg := smallConfig()
	cfg.Rounds = 6
	cfg.DeadlinePercentile = 20 // only the fastest 20% can finish
	res, err := runSync(fed, pop, selection.NewRandom(4), NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.TotalDrops == 0 {
		t.Fatal("tight deadline produced no dropouts")
	}
	if res.Ledger.Wasted.ComputeHours <= 0 {
		t.Fatal("dropouts produced no wasted compute")
	}
}

func TestStaticControllerRescuesClients(t *testing.T) {
	// Fig 5's mechanism: a static optimization lifts participation under a
	// deadline that TechNone cannot meet.
	fed, pop := testSetup(t, 30, trace.ScenarioDynamic)
	cfg := smallConfig()
	cfg.Rounds = 8
	cfg.DeadlinePercentile = 35

	resNone, err := runSync(fed, pop, selection.NewRandom(5), NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed2, pop2 := testSetup(t, 30, trace.ScenarioDynamic)
	resOpt, err := runSync(fed2, pop2, selection.NewRandom(5), StaticController{Tech: opt.TechPartial75}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resOpt.Ledger.TotalDrops >= resNone.Ledger.TotalDrops {
		t.Fatalf("partial75 did not reduce dropouts: %d vs %d",
			resOpt.Ledger.TotalDrops, resNone.Ledger.TotalDrops)
	}
}

func TestRunSyncValidation(t *testing.T) {
	fed, pop := testSetup(t, 8, trace.ScenarioNone)
	bad := smallConfig()
	bad.Rounds = 0
	if _, err := runSync(fed, pop, selection.NewRandom(1), NoOpController{}, bad); err == nil {
		t.Fatal("accepted zero rounds")
	}
	bad = smallConfig()
	bad.Arch = "nope"
	if _, err := runSync(fed, pop, selection.NewRandom(1), NoOpController{}, bad); err == nil {
		t.Fatal("accepted unknown architecture")
	}
	if _, err := runSync(fed, pop[:4], selection.NewRandom(1), NoOpController{}, smallConfig()); err == nil {
		t.Fatal("accepted mismatched population")
	}
	// An empty population must error, not divide by zero on the mean
	// shard size.
	if _, err := runSync(&data.Federation{}, nil, selection.NewRandom(1), NoOpController{}, smallConfig()); err == nil {
		t.Fatal("accepted empty population")
	}
}

func TestRunAsyncBasics(t *testing.T) {
	fed, pop := testSetup(t, 30, trace.ScenarioDynamic)
	cfg := smallConfig()
	cfg.Rounds = 5 // aggregations
	cfg.Concurrency = 15
	cfg.BufferK = 5
	res, err := runAsync(fed, pop, NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "fedbuff" {
		t.Fatalf("algorithm label %q", res.Algorithm)
	}
	if res.WallClockSeconds <= 0 {
		t.Fatal("async wall clock not tracked")
	}
	if res.Ledger.TotalRounds < cfg.Rounds*cfg.BufferK {
		t.Fatalf("too few client-rounds executed: %d", res.Ledger.TotalRounds)
	}
	if len(res.FinalClientAccs) != 30 {
		t.Fatal("final client accuracies missing")
	}
	if len(res.GlobalAccHistory) == 0 {
		t.Fatal("no eval points recorded")
	}
}

func TestRunAsyncOverSelectsVsSync(t *testing.T) {
	// Fig 2b: async FL consumes far more client-rounds (and thus
	// resources) than synchronous FL for the same number of aggregations.
	fed, pop := testSetup(t, 30, trace.ScenarioDynamic)
	cfg := smallConfig()
	cfg.Rounds = 5
	cfg.Concurrency = 20
	cfg.BufferK = 5
	async, err := runAsync(fed, pop, NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed2, pop2 := testSetup(t, 30, trace.ScenarioDynamic)
	cfgSync := smallConfig()
	cfgSync.Rounds = 5
	cfgSync.ClientsPerRound = 5
	sync, err := runSync(fed2, pop2, selection.NewRandom(6), NoOpController{}, cfgSync)
	if err != nil {
		t.Fatal(err)
	}
	if async.Ledger.TotalRounds <= sync.Ledger.TotalRounds {
		t.Fatalf("FedBuff should execute more client-rounds: async=%d sync=%d",
			async.Ledger.TotalRounds, sync.Ledger.TotalRounds)
	}
}

func TestRunAsyncValidation(t *testing.T) {
	fed, pop := testSetup(t, 8, trace.ScenarioNone)
	bad := smallConfig()
	bad.Rounds = 0
	if _, err := runAsync(fed, pop, NoOpController{}, bad); err == nil {
		t.Fatal("accepted zero rounds")
	}
	if _, err := runAsync(fed, pop[:4], NoOpController{}, smallConfig()); err == nil {
		t.Fatal("accepted mismatched population")
	}
	if _, err := runAsync(&data.Federation{}, nil, NoOpController{}, smallConfig()); err == nil {
		t.Fatal("accepted empty population")
	}
}

// A NaN deadline percentile passes withDefaults' `<= 0`; both engines
// must reject it, +Inf and any other value above 100 before the deadline
// is derived from it.
func TestRunRejectsNonFiniteDeadlinePercentile(t *testing.T) {
	fed, pop := testSetup(t, 8, trace.ScenarioNone)
	for _, pct := range []float64{math.NaN(), math.Inf(1), 150} {
		cfg := smallConfig()
		cfg.DeadlinePercentile = pct
		if _, err := runSync(fed, pop, selection.NewRandom(1), NoOpController{}, cfg); err == nil {
			t.Errorf("RunSync accepted DeadlinePercentile %v", pct)
		}
		if _, err := runAsync(fed, pop, NoOpController{}, cfg); err == nil {
			t.Errorf("RunAsync accepted DeadlinePercentile %v", pct)
		}
	}
}

func TestControllersMetadata(t *testing.T) {
	var c Controller = NoOpController{}
	if c.Name() != "none" {
		t.Fatal("NoOpController name")
	}
	if c.Decide(0, nil, device.Resources{}, 0) != opt.TechNone {
		t.Fatal("NoOpController must decide TechNone")
	}
	s := StaticController{Tech: opt.TechQuant8}
	if s.Name() != "static-quant8" {
		t.Fatalf("StaticController name %q", s.Name())
	}
	if s.Decide(0, nil, device.Resources{}, 0) != opt.TechQuant8 {
		t.Fatal("StaticController must decide its technique")
	}
}

func TestAutoDeadline(t *testing.T) {
	_, pop := testSetup(t, 20, trace.ScenarioNone)
	p := eagerDevices(t, pop)
	w := device.WorkSpec{RefFLOPsPerSample: 1e9, RefParams: 1e6, Samples: 50, Epochs: 5}
	d50 := autoDeadline(p, w, 50)
	d90 := autoDeadline(p, w, 90)
	if d50 <= 0 || d90 < d50 {
		t.Fatalf("auto deadline not monotone: p50=%v p90=%v", d50, d90)
	}
}

// TestEvaluateClientsPopSample pins the final-evaluation seam: no limit (or
// one at least the population) evaluates every client in ID order, a smaller
// positive limit the deterministic strided sample i·n/limit.
func TestEvaluateClientsPopSample(t *testing.T) {
	fed, pop := testSetup(t, 12, trace.ScenarioNone)
	p, err := population.WrapEager(fed, pop)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewModel("mlp-small", fed.Profile.Dim, fed.Profile.Classes, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	all := evaluateClientsPop(m, p, 0)
	if len(all) != 12 {
		t.Fatalf("unlimited evaluation covered %d clients, want 12", len(all))
	}
	for id := range all {
		if want := m.Evaluate(fed.LocalTest[id]); all[id] != want {
			t.Fatalf("client %d accuracy %v, want %v", id, all[id], want)
		}
	}
	if got := evaluateClientsPop(m, p, 40); !reflect.DeepEqual(got, all) {
		t.Fatalf("limit above the population must evaluate everyone: %v vs %v", got, all)
	}
	sampled := evaluateClientsPop(m, p, 5)
	if len(sampled) != 5 {
		t.Fatalf("limit 5 evaluated %d clients", len(sampled))
	}
	for i, acc := range sampled {
		if acc != all[i*12/5] {
			t.Fatalf("sample %d is not client %d's accuracy", i, i*12/5)
		}
	}
}

func TestRunAsyncDiscardsStaleUpdates(t *testing.T) {
	// A tiny staleness cap with heavy concurrency forces some completed
	// updates to arrive too stale to aggregate; they must be accounted as
	// discarded waste, not useful work.
	fed, pop := testSetup(t, 30, trace.ScenarioNone)
	cfg := smallConfig()
	cfg.Rounds = 8
	cfg.Concurrency = 25
	cfg.BufferK = 3
	cfg.StalenessCap = 1
	res, err := runAsync(fed, pop, NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Discarded == 0 {
		t.Skip("no update exceeded the staleness cap in this seed")
	}
	if res.Ledger.Wasted.ComputeHours <= 0 {
		t.Fatal("discarded updates did not count as wasted compute")
	}
}

func TestRunSyncWallClockUsesDeadlineOnTimeout(t *testing.T) {
	fed, pop := testSetup(t, 20, trace.ScenarioDynamic)
	cfg := smallConfig()
	cfg.Rounds = 5
	cfg.DeadlinePercentile = 20 // guarantees timeouts
	res, err := runSync(fed, pop, selection.NewRandom(9), NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.DropsByReason[device.DropDeadline] == 0 {
		t.Skip("no deadline timeouts at this seed")
	}
	// Wall clock can never exceed rounds × deadline, and a timeout round
	// contributes exactly the deadline.
	if res.WallClockSeconds > float64(cfg.Rounds)*res.DeadlineSec+1e-6 {
		t.Fatalf("wall clock %v exceeds rounds×deadline %v",
			res.WallClockSeconds, float64(cfg.Rounds)*res.DeadlineSec)
	}
	if res.WallClockSeconds < res.DeadlineSec {
		t.Fatalf("wall clock %v below one deadline despite a timeout round", res.WallClockSeconds)
	}
}
