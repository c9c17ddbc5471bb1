package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/population"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// sizes is the shape of one workload lap. The full sizes keep the issue's
// shapes with rounds shrunk to fit the contract's run length; smoke runs
// the same code paths in well under two seconds for `go test`.
type sizes struct {
	Dataset      string `json:"dataset"`
	Arch         string `json:"arch"`
	Backend      string `json:"backend"`
	Clients      int    `json:"clients"`
	PerRound     int    `json:"per_round"`
	Rounds       int    `json:"rounds_per_lap"`
	Epochs       int    `json:"epochs"`
	Batch        int    `json:"batch"`
	EvalEvery    int    `json:"eval_every,omitempty"`
	CacheClients int    `json:"cache_clients,omitempty"`
	EvalClients  int    `json:"eval_clients,omitempty"`
	Concurrency  int    `json:"concurrency,omitempty"`
	ShardCap     int    `json:"shard_cap,omitempty"`
	// Floor is the accuracy a correct lap reaches on every seed tried, with
	// margin (chance is 1/classes); smoke laps are too short to learn and
	// only have to stay finite.
	Floor float64 `json:"accuracy_floor"`
}

// outcome is what one lap did, as far as the output checks and the
// failure accounting need it.
type outcome struct {
	clientRounds int
	failed       int
	digest       string
	acc          float64
}

// workload is one rung set of the ladder.
type workload struct {
	name        string
	why         string
	async       bool
	full, smoke sizes
	lap         func(l *lap, sz sizes, seed int64, par int) (outcome, error)
}

var workloads = []workload{
	{
		name: "sync-train",
		why:  "paper-scale FedAvg+FLOAT cell on the fast backend: nn/tensor do almost all the work",
		full: sizes{Dataset: "femnist", Arch: "resnet34", Backend: "fast", Clients: 200, PerRound: 30,
			Rounds: 40, Epochs: 5, Batch: 20, EvalEvery: 10, Floor: 0.25},
		smoke: sizes{Dataset: "femnist", Arch: "resnet34", Backend: "fast", Clients: 24, PerRound: 6,
			Rounds: 8, Epochs: 1, Batch: 20, EvalEvery: 4},
		lap: syncTrainLap,
	},
	{
		name: "lazy-1m",
		why:  "million-client lazy population: selection, derivation and the sparse ledger sit on the sequential path",
		full: sizes{Dataset: "femnist", Arch: "mlp-small", Backend: "ref", Clients: 1_000_000, PerRound: 250,
			Rounds: 30, Epochs: 1, Batch: 20, CacheClients: 4096, EvalClients: 200, Floor: 0.2},
		smoke: sizes{Dataset: "femnist", Arch: "mlp-small", Backend: "ref", Clients: 20_000, PerRound: 40,
			Rounds: 8, Epochs: 1, Batch: 20, CacheClients: 64, EvalClients: 20},
		lap: lazyLap,
	},
	{
		name:  "async-durable",
		why:   "FedBuff engine with every telemetry channel on and a snapshot per aggregation: the write side",
		async: true,
		full: sizes{Dataset: "femnist", Arch: "shufflenet", Backend: "ref", Clients: 200, PerRound: 30,
			Rounds: 100, Epochs: 1, Batch: 20, EvalEvery: 10, Concurrency: 100, Floor: 0.2},
		smoke: sizes{Dataset: "femnist", Arch: "shufflenet", Backend: "ref", Clients: 24, PerRound: 4,
			Rounds: 8, Epochs: 1, Batch: 20, EvalEvery: 4, Concurrency: 12},
		lap: asyncLap,
	},
	{
		name: "dist-loopback",
		why:  "real HTTP aggregator on loopback with tiny shards: the only workload that enters internal/dist",
		full: sizes{Dataset: "openimage", Arch: "resnet50", Backend: "ref", Clients: 16, PerRound: 16,
			Rounds: 50, Epochs: 1, Batch: 16, ShardCap: 8, Floor: 0.06},
		smoke: sizes{Dataset: "openimage", Arch: "resnet50", Backend: "ref", Clients: 4, PerRound: 4,
			Rounds: 8, Epochs: 1, Batch: 16, ShardCap: 8},
		lap: distLap,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// backendFor returns the tensor backend a lap trains on: the counting
// pass-through on a traced lap.
func backendFor(l *lap, name string) string {
	if l.rec != nil {
		return "traced-" + name
	}
	return name
}

// eagerPopulation builds the dense femnist-style federation and device
// population every eager workload starts from; -seed is its only source of
// randomness.
func eagerPopulation(sz sizes, seed int64) (*population.Population, error) {
	fed, err := data.Generate(sz.Dataset, data.GenerateConfig{Clients: sz.Clients, Alpha: 0.1, Seed: seed})
	if err != nil {
		return nil, err
	}
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: sz.Clients, Scenario: trace.ScenarioDynamic, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return population.WrapEager(fed, pop)
}

func floatController(sz sizes, seed int64, reg *obs.Registry) *core.Float {
	return core.New(core.Config{
		Agent:           rl.Config{Seed: seed + 2, TotalRounds: sz.Rounds},
		BatchSize:       sz.Batch,
		Epochs:          sz.Epochs,
		ClientsPerRound: sz.PerRound,
		Metrics:         reg,
	})
}

// simConfig is the fl.Config fields the three simulator workloads share.
func simConfig(l *lap, sz sizes, seed int64, par int) fl.Config {
	cfg := fl.Config{
		Arch:            sz.Arch,
		Rounds:          sz.Rounds,
		ClientsPerRound: sz.PerRound,
		Epochs:          sz.Epochs,
		BatchSize:       sz.Batch,
		LR:              0.1,
		EvalEvery:       sz.EvalEvery,
		Seed:            seed + 1,
		Parallelism:     par,
		Backend:         backendFor(l, sz.Backend),
		EvalClients:     sz.EvalClients,
		Checkpoint:      &fl.CheckpointConfig{Stop: l.boundary},
	}
	if l.rec != nil {
		cfg.Logger = &logSeam{fl.NopLogger{}, l}
	}
	return cfg
}

func syncTrainLap(l *lap, sz sizes, seed int64, par int) (outcome, error) {
	p, err := eagerPopulation(sz, seed)
	if err != nil {
		return outcome{}, err
	}
	sel := &selSeam{selection.NewRandom(seed + 10), l}
	ctrl := &ctrlSeam{floatController(sz, seed, nil), l}
	res, err := fl.RunSyncPop(p, sel, ctrl, simConfig(l, sz, seed, par))
	if err != nil {
		return outcome{}, err
	}
	return checkSim(res, sz.Rounds)
}

func lazyLap(l *lap, sz sizes, seed int64, par int) (outcome, error) {
	p, err := population.NewLazy(population.Config{
		Dataset: sz.Dataset, Clients: sz.Clients, Alpha: 0.1, Seed: seed,
		Scenario: trace.ScenarioDynamic, CacheClients: sz.CacheClients,
	})
	if err != nil {
		return outcome{}, err
	}
	cfg := simConfig(l, sz, seed, par)
	cfg.EvalEvery = sz.Rounds + 1 // evaluate at the end only
	sel := &selSeam{selection.NewRandom(seed + 10), l}
	ctrl := &ctrlSeam{fl.NoOpController{}, l}
	res, err := fl.RunSyncPop(p, sel, ctrl, cfg)
	if err != nil {
		return outcome{}, err
	}
	shard, dev := p.Stats()
	l.cacheLookups = shard.Hits + shard.Misses + dev.Hits + dev.Misses
	l.cacheMisses = shard.Misses + dev.Misses
	return checkSim(res, sz.Rounds)
}

func asyncLap(l *lap, sz sizes, seed int64, par int) (outcome, error) {
	return asyncRun(l, sz, seed, par, true, true)
}

// asyncRun is the async-durable lap with its write side switchable, so the
// telemetry channels' cost can be taken as a difference.
func asyncRun(l *lap, sz sizes, seed int64, par int, channels, snapshots bool) (outcome, error) {
	p, err := eagerPopulation(sz, seed)
	if err != nil {
		return outcome{}, err
	}
	cfg := simConfig(l, sz, seed, par)
	cfg.Concurrency = sz.Concurrency
	cfg.BufferK = sz.PerRound
	var reg *obs.Registry
	if channels {
		reg = obsChannels(&cfg)
		l.obsReg, l.obsTracer = reg, cfg.Tracer
	}
	if snapshots {
		cfg.Checkpoint.Every = 1
		cfg.Checkpoint.Sink = l.sink
	}
	res, err := fl.RunAsyncPop(p, &ctrlSeam{floatController(sz, seed, reg), l}, cfg)
	if err != nil {
		return outcome{}, err
	}
	if snapshots && len(l.snapBytes) != sz.Rounds {
		return outcome{}, fmt.Errorf("%d snapshots for %d aggregations", len(l.snapBytes), sz.Rounds)
	}
	return checkSim(res, sz.Rounds)
}

// obsChannels turns on the four telemetry channels — registry, tracer,
// timeline, JSONL log — keeping a logSeam that is already installed.
func obsChannels(cfg *fl.Config) *obs.Registry {
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.Tracer = obs.NewTracer()
	cfg.Timeline = obs.NewTimeline(reg, obs.DefaultTimelineCapacity)
	var logger fl.RoundLogger = fl.NewJSONLLogger(io.Discard)
	if seam, ok := cfg.Logger.(*logSeam); ok {
		seam.inner = logger
	} else {
		cfg.Logger = logger
	}
	return reg
}

// checkSim applies the simulator output checks and digests the result:
// every selected client-round is accounted for, the global model is
// finite, and the run went the full distance.
func checkSim(res *fl.Result, rounds int) (outcome, error) {
	led := res.Ledger
	completions := 0
	for _, n := range led.TechSuccess {
		completions += n
	}
	if led.TotalRounds != completions+led.TotalDrops+led.Discarded {
		return outcome{}, fmt.Errorf("ledger does not balance: %d client-rounds, %d completed + %d dropped + %d discarded",
			led.TotalRounds, completions, led.TotalDrops, led.Discarded)
	}
	if res.CompletedRounds != rounds {
		return outcome{}, fmt.Errorf("engine completed %d of %d rounds", res.CompletedRounds, rounds)
	}
	h := sha256.New()
	var b [8]byte
	for _, x := range res.FinalParams {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return outcome{}, fmt.Errorf("non-finite global parameter")
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, n := range []int{led.TotalRounds, completions, led.TotalDrops, led.Discarded} {
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	return outcome{
		clientRounds: led.TotalRounds,
		digest:       hex.EncodeToString(h.Sum(nil)[:8]),
		acc:          res.FinalGlobalAcc,
	}, nil
}
