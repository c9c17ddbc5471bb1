// Package fl implements the federated-learning engines the paper
// evaluates: a synchronous round-based engine (FedAvg-style, used with the
// Random/Oort/REFL selectors) and an asynchronous buffered engine
// (FedBuff). Both train real models on the synthetic federation while a
// device cost model decides which clients drop out, and both delegate
// per-client acceleration decisions to a Controller — the hook FLOAT (or a
// heuristic, or a static technique) plugs into, which is exactly the
// paper's "non-intrusive integration" property.
package fl

import (
	"fmt"
	"math"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// Controller decides, per selected client and round, which acceleration
// technique to apply, and receives feedback after execution. Controllers
// must be safe for sequential use only: even when the engines fan client
// work out across workers (Config.Parallelism), Decide runs on the
// dispatch pass and Feedback on the collect pass of a single goroutine, in
// dispatch order. Feedback for a batch of concurrently-executed clients is
// delivered after the whole batch completes (end of round for the sync
// engine, aggregation barrier for the async engine), so Decide observes
// controller state as of the previous batch boundary. floatd (internal/dist)
// times it differently, under its server lock: an update's Feedback is
// delivered when the update is accepted, a dropout's when its lease expires
// or its round closes, so there Decide observes every outcome accepted
// before it, not a batch boundary.
type Controller interface {
	Name() string
	// Decide picks a technique given the client's resource snapshot and
	// the most recent human-feedback deadline difference for this client
	// (0 when the client has no missed-deadline history).
	Decide(round int, c *device.Client, res device.Resources, hfDeadlineDiff float64) opt.Technique
	// Feedback reports the executed outcome plus the client's accuracy
	// improvement (post-round local accuracy minus pre-round, may be
	// negative).
	Feedback(round int, c *device.Client, tech opt.Technique, out device.Outcome, accImprove float64)
}

// NoOpController always chooses TechNone — the unmodified baselines.
type NoOpController struct{}

// Name implements Controller.
func (NoOpController) Name() string { return "none" }

// Decide implements Controller.
func (NoOpController) Decide(int, *device.Client, device.Resources, float64) opt.Technique {
	return opt.TechNone
}

// Feedback implements Controller.
func (NoOpController) Feedback(int, *device.Client, opt.Technique, device.Outcome, float64) {}

// StaticController always applies one fixed technique — the paper's
// "static optimizations" strawman (Fig 5).
type StaticController struct{ Tech opt.Technique }

// Name implements Controller.
func (s StaticController) Name() string { return "static-" + s.Tech.String() }

// Decide implements Controller.
func (s StaticController) Decide(int, *device.Client, device.Resources, float64) opt.Technique {
	return s.Tech
}

// Feedback implements Controller.
func (s StaticController) Feedback(int, *device.Client, opt.Technique, device.Outcome, float64) {}

// Config parameterizes a training run. A snapshot's fingerprint pins every
// field under its json name; `json:"-"` marks those that move no byte of
// the schedule: Rounds (resuming with more is how a run is extended),
// Parallelism, the sinks and the checkpoint hooks.
type Config struct {
	Arch            string  `json:"arch"`
	Rounds          int     `json:"-"`
	ClientsPerRound int     `json:"clients_per_round"`
	Epochs          int     `json:"epochs"`
	BatchSize       int     `json:"batch_size"`
	LR              float64 `json:"lr"`
	// DeadlineSec is the synchronous round deadline. Zero auto-derives it
	// from the population (see DeadlinePercentile).
	DeadlineSec float64 `json:"deadline_sec"`
	// DeadlinePercentile picks the auto deadline as this percentile of the
	// population's estimated unoptimized response time (default 60).
	DeadlinePercentile float64 `json:"deadline_percentile"`
	// EvalEvery evaluates the global model each N rounds (default 10).
	EvalEvery int   `json:"eval_every"`
	Seed      int64 `json:"seed"`

	// Async (FedBuff) knobs.
	// Concurrency is the number of clients training simultaneously
	// (default 100 in the paper's FedBuff setup).
	Concurrency int `json:"concurrency"`
	// BufferK aggregates once this many updates arrive (default 30).
	BufferK int `json:"buffer_k"`
	// StalenessCap discards updates older than this many versions
	// (default 20).
	StalenessCap int `json:"staleness_cap"`

	// Parallelism is the number of workers executing per-client rounds
	// (device cost model + local training) concurrently. Results are
	// collected in dispatch order, so any value produces bit-identical
	// results to Parallelism=1. <= 0 defaults to runtime.NumCPU().
	Parallelism int `json:"-"`

	// Backend names the tensor backend local training runs on (a
	// tensor.Lookup name; empty defaults to "ref"). "ref" and "fast" are
	// two names for the same bit-exact kernels, so the determinism
	// invariants — the P=1≡P=8 golden tests and the committed trace
	// goldens — hold under either. The name is part of the snapshot's
	// recorded config.
	Backend string `json:"backend"`

	// Logger receives structured per-client-round and per-round events
	// (nil discards them).
	Logger RoundLogger `json:"-"`

	// Metrics receives engine counters/gauges/histograms (nil disables
	// metric collection at zero cost beyond a nil check per event).
	Metrics *obs.Registry `json:"-"`
	// Tracer receives the per-round phase spans — select/decide/train/
	// comm/drop/aggregate — timestamped in virtual simulation seconds
	// (nil disables tracing).
	Tracer *obs.Tracer `json:"-"`
	// Timeline receives one delta-encoded sample of Metrics plus per-round
	// engine facts at every quiescent boundary (end of round for the sync
	// engine, aggregation barrier for the async engine). Controllers
	// implementing TimelineContributor add their own series — core.Float
	// contributes the RL action-visit distribution. Nil disables sampling.
	Timeline *obs.Timeline `json:"-"`

	// ProxMu enables FedProx's proximal term during local training
	// (0 = plain FedAvg local SGD).
	ProxMu float64 `json:"prox_mu"`

	// EvalClients caps how many clients the end-of-run per-client
	// evaluation touches (a deterministic strided sample; 0 evaluates
	// all). Million-client lazy runs set this so final evaluation costs
	// O(sample), not O(population).
	EvalClients int `json:"eval_clients"`

	// Checkpoint wires snapshot/resume and graceful-stop control into the
	// run (nil disables; the hot loops then pay one nil check per
	// boundary).
	Checkpoint *CheckpointConfig `json:"-"`

	// forceLazySelection routes selection through the LazySelector path
	// even for an eager population. Test-only: it lets the equivalence
	// tests run the identical selection schedule against eager and lazy
	// backings of the same population.
	forceLazySelection bool
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.DeadlinePercentile <= 0 {
		c.DeadlinePercentile = 60
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 10
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 100
	}
	if c.BufferK <= 0 {
		c.BufferK = 30
	}
	if c.StalenessCap <= 0 {
		c.StalenessCap = 20
	}
	if c.Parallelism <= 0 {
		c.Parallelism = defaultParallelism()
	}
	if c.Backend == "" {
		c.Backend = "ref"
	}
	if c.Logger == nil {
		c.Logger = NopLogger{}
	}
	return c
}

func (c Config) validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: Rounds must be positive, got %d", c.Rounds)
	}
	if c.ClientsPerRound <= 0 {
		return fmt.Errorf("fl: ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	}
	if c.Arch == "" {
		return fmt.Errorf("fl: Arch is required")
	}
	// NaN passes withDefaults' `<= 0` and would index the percentile
	// at int(NaN); above 100 it is not a percentile, and
	// metrics.Percentile would silently read it as 100.
	if math.IsNaN(c.DeadlinePercentile) || c.DeadlinePercentile > 100 {
		return fmt.Errorf("fl: DeadlinePercentile must be a number no greater than 100, got %v", c.DeadlinePercentile)
	}
	return nil
}

// Result is the outcome of a complete training run.
type Result struct {
	Algorithm  string
	Controller string

	Ledger *metrics.Ledger

	// GlobalAccHistory[i] is the global-model accuracy on the balanced
	// holdout at EvalRounds[i].
	GlobalAccHistory []float64
	EvalRounds       []int

	// FinalClientAccs holds the final global model's accuracy on each
	// client's local (non-IID) test split; FinalAccStats summarizes it.
	FinalClientAccs []float64
	FinalAccStats   metrics.AccuracyStats
	FinalGlobalAcc  float64

	WallClockSeconds float64
	DeadlineSec      float64

	// CompletedRounds is how many rounds (sync) or aggregations (async)
	// actually executed — equal to Config.Rounds for a full run, fewer
	// when a CheckpointConfig.Stop drain ended the run early. A resumed
	// run counts from round zero, so an N-round snapshot resumed for N
	// more reports 2N.
	CompletedRounds int

	// FinalParams is a frozen copy of the global model's flat parameter
	// vector at the end of the run. It is what the determinism regression
	// tests compare bit-for-bit across worker counts.
	FinalParams tensor.Vector
}

// deadlineFromEstimates derives the synchronous round deadline as a
// percentile of the population's *clean* (interference-free) response-time
// estimates (Population.CleanResponseEstimates), padded with 50% slack.
// Budgeting against the clean baseline mirrors how deployments pick
// deadlines: generous for healthy devices, so runtime dropouts are caused by
// interference and resource dips — the regime where adaptive acceleration
// pays off. No estimates fall back to the 60-second default.
func deadlineFromEstimates(ests []float64, percentile float64) float64 {
	d := metrics.Percentile(ests, percentile) * 1.5
	if d <= 0 {
		d = 60
	}
	return d
}

// setModelBackend resolves cfg.Backend by name and installs it on the
// global model; every per-worker clone inherits it (nn.Model.Clone
// propagates the backend), so one call here switches the whole run's
// training kernels.
func setModelBackend(m *nn.Model, name string) error {
	be, err := tensor.Lookup(name)
	if err != nil {
		return fmt.Errorf("fl: Config.Backend: %w", err)
	}
	m.SetBackend(be)
	return nil
}

// workSpecFor builds the client-round work spec from the architecture's
// reference scale and the client's shard size.
func workSpecFor(spec nn.Spec, samples, epochs int) device.WorkSpec {
	if samples <= 0 {
		samples = 1
	}
	return device.WorkSpec{
		RefFLOPsPerSample: spec.RefFLOPs,
		RefParams:         spec.RefParams,
		Samples:           samples,
		Epochs:            epochs,
	}
}

// LocalResult is what a completed client round produces.
type LocalResult struct {
	Delta       tensor.Vector
	Weight      float64
	StatUtility float64
	AccImprove  float64
}

// trainSeed is the per-(run, round, client) seed every stochastic stream
// of one client round derives from. Keeping it a pure function of
// (Seed, round, clientID) is what lets client rounds run on any worker in
// any order and still reproduce the sequential schedule bit-for-bit.
func trainSeed(cfg Config, round, clientID int) int64 {
	return cfg.Seed*1_000_003 + int64(round)*10_007 + int64(clientID)
}

// updateRNGSalt decorrelates the update-transform stream (stochastic
// quantization rounding) from the batch-shuffle stream nn.Train derives
// from the same base seed.
const updateRNGSalt = 0x5DEECE66D

// TrainLocal is one client round, the one both the simulator's engines and
// floatd's client runtime execute: it loads the `before` parameter snapshot
// into local, runs local SGD on shard under tc and the technique's semantic
// effects (frozen layers / pruned + quantized update), writes the
// transformed delta into delta, and measures on localTest the accuracy the
// client gains by adopting its own update, which it assembles in applied.
// Every buffer and stream is the caller's: tc.Seed drives nn.Train's batch
// shuffle and updateRNG the update transform; before is only read and must
// not alias local's parameters, but may be applied itself, since it is not
// read once applied is written. A caller that encodes the update passes
// codes (len(delta) long, or nil for none): TrainLocal records there the
// integer grid a quantizing technique puts delta on (opt.QuantizeGrid) and
// returns it, for opt.AppendCompressGrid; the bits of delta do not depend
// on it. So
// concurrent calls on disjoint buffers and streams are race-free and
// order-independent, and steady-state calls allocate nothing.
func TrainLocal(local *nn.Model, before, delta, applied tensor.Vector, shard, localTest []nn.Sample,
	tech opt.Technique, tc nn.TrainConfig, updateRNG *rngstate.Source, codes []int16) (LocalResult, opt.Grid, error) {

	var res LocalResult
	var grid opt.Grid
	if err := local.SetParameters(before); err != nil {
		return res, grid, err
	}
	accBefore := local.Evaluate(localTest)
	tc.FrozenLayers = opt.FrozenLayerMask(len(local.Layers), tech.Effects().PartialFrac)
	if tc.ProxMu > 0 {
		tc.ProxAnchor = before
	}
	loss, err := local.Train(shard, tc)
	if err != nil {
		return res, grid, err
	}

	tensor.ScaledDiff(delta, 1, local.Parameters(), before)
	grid = opt.ApplyToUpdateGrid(tech, delta, updateRNG, codes)

	// Accuracy improvement the client would see if it adopted its own
	// (transformed) update — the Acc_i reward component.
	copy(applied, before)
	applied.AddScaled(1, delta)
	if err := local.SetParameters(applied); err != nil {
		return res, grid, err
	}
	accAfter := local.Evaluate(localTest)

	res.Delta = delta
	res.Weight = float64(len(shard))
	// Oort's statistical utility for a client is |B_i| · sqrt(mean squared
	// sample loss over its shard B_i). The engine only sees the mean final
	// epoch loss, so |B|·|loss| is the standard single-scalar proxy (loss
	// is a mean of non-negative cross-entropies, but |·| guards the FedProx
	// path where the reported value could in principle go negative).
	res.StatUtility = float64(len(shard)) * math.Abs(loss)
	res.AccImprove = accAfter - accBefore
	return res, grid, nil
}

// ApplyAggregate adds the weighted mean of deltas to the global model's
// flat parameter buffer in place (no intermediate aggregate vector); the
// engines and floatd's aggregator all aggregate through it. Non-finite
// deltas (a diverged or malicious client) and non-positive weights are
// discarded rather than allowed to poison the global model. It compacts
// deltas and weights in place and returns the deltas it kept: a prefix of
// deltas whose vectors are distinct, while entries past it may repeat kept
// ones — a caller recycling the vectors recycles only the returned prefix.
func ApplyAggregate(global *nn.Model, deltas []tensor.Vector, weights []float64) []tensor.Vector {
	var totalW float64
	kept := deltas[:0]
	keptW := weights[:0]
	for i, d := range deltas {
		if !IsFinite(d) || weights[i] <= 0 {
			continue
		}
		kept = append(kept, d)
		keptW = append(keptW, weights[i])
		totalW += weights[i]
	}
	if totalW <= 0 {
		return kept
	}
	for i := range keptW {
		keptW[i] /= totalW
	}
	//lint:allow flat-view-mutation aggregator owns the global model; in-place update is the sanctioned fast path (DESIGN.md buffer ownership)
	tensor.AddWeighted(global.Parameters(), keptW, kept)
	return kept
}

// IsFinite reports whether v holds no NaN or ±Inf. x - x is +0 for a
// finite x and NaN otherwise, so four independent sums of it are all +0
// exactly when every entry is finite: a pass with no branch per entry.
func IsFinite(v tensor.Vector) bool {
	var s0, s1, s2, s3 float64
	for ; len(v) >= 4; v = v[4:] {
		s0 += v[0] - v[0]
		s1 += v[1] - v[1]
		s2 += v[2] - v[2]
		s3 += v[3] - v[3]
	}
	for _, x := range v {
		s0 += x - x
	}
	return (s0+s1)+(s2+s3) == 0
}

// evaluateClientsPop returns the model's accuracy on clients' local test
// splits through the population seam. limit ≤ 0 (or ≥ population)
// evaluates every client; a positive limit evaluates a deterministic
// strided sample, the only affordable option at million-client scale. Lazy
// shards are derived one at a time into one reused buffer.
func evaluateClientsPop(m *nn.Model, p *population.Population, limit int) []float64 {
	n := p.NumClients()
	count := n
	if limit > 0 && limit < n {
		count = limit
	}
	accs := make([]float64, count)
	var buf data.ShardBuf
	for i := 0; i < count; i++ {
		accs[i] = m.Evaluate(p.ShardInto(i*n/count, &buf).LocalTest)
	}
	return accs
}
