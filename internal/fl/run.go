package fl

import (
	"fmt"
	"math"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/rngstate"
	"floatfl/internal/selection"
	"floatfl/internal/tensor"
)

// run is one training run: every piece of state either engine has lives
// here, so the struct is also the checkpoint surface (CheckpointState /
// RestoreCheckpoint in checkpoint.go, audited field by field by the
// ckpt-coverage lint rule). The two engines are two step functions over it
// — syncRound and asyncStep — sharing newRun, boundary and finish.
type run struct {
	kind string // SyncSnapshotKind or AsyncSnapshotKind
	cfg  Config
	p    *population.Population
	sel  selection.Selector // nil for FedBuff, which samples its own launches
	ctrl Controller
	// lazy routes selection (sync) and launching (async) through O(selected)
	// probes of the population view instead of the dense check-in scan.
	lazy bool

	spec    nn.Spec
	refWork device.WorkSpec
	// deadline is the synchronous round deadline; for FedBuff it is the
	// per-task timeout, which is also the length of one trace step.
	deadline float64
	global   *nn.Model
	rng      *rngstate.Source
	res      *Result
	// hfDiff tracks the latest deadline-difference human feedback per
	// client — sparse, because a million-client run only ever touches the
	// participants.
	hfDiff map[int]float64
	done   int     // completed rounds (sync) or aggregations (async)
	now    float64 // virtual simulation clock, seconds
	// fp is the run's fingerprint, marshaled once by newRun when the run
	// checkpoints.
	fp []byte

	// Reusable per-worker training contexts and per-slot delta buffers
	// (grown once, then steady-state client rounds allocate nothing) and the
	// telemetry handles. Neither is run state: the pool is scratch and the
	// registry behind the handles is snapshotted as a whole.
	pool *contextPool
	eo   *engineObs

	// FedBuff event loop. versions holds the retained global-parameter
	// snapshots stale training starts from; they are immutable once stored
	// (the barrier's jobs read them concurrently), so each is a clone.
	versions      map[int]tensor.Vector
	version       int
	tasks         taskHeap
	evalCountdown int
	//lint:allow ckpt-coverage derived state: exactly the client IDs of tasks, which the snapshot carries; restore rebuilds it while re-pinning them
	inFlight map[int]bool
	//lint:allow ckpt-coverage empty at every boundary: the barrier collects and clears the popped client-rounds before the checkpoint hook runs
	pending []slot
	//lint:allow ckpt-coverage empty at every boundary: indexes pending, and is cleared with it
	jobs []int
	//lint:allow ckpt-coverage scratch: the eager launcher's eligible IDs, rebuilt by every launch
	eligible []int
	// frame is the writer every snapshot is re-encoded into; its buffer's
	// capacity carries the last snapshot's size.
	frame checkpoint.Enc
}

// slot is one executed client-round on its way from the pass that resolved
// it — the sync dispatch pass, or a FedBuff pop — through the fan-out to
// collect. The client is pinned until collect has booked the slot, so
// workers never touch the population cache: its hit/miss schedule, like
// every other order-sensitive effect, belongs to the sequential passes. The
// shard is not in the slot: the job that trains derives it into its
// worker's buffer. A job writes only its own slot's result fields.
type slot struct {
	id     int
	client *device.Client
	tech   opt.Technique
	// round is the sync round, or the model version at the FedBuff pop: it
	// seeds training and files the feedback and the log record. base is the
	// version training starts from — round itself in a sync round — and
	// files the client's spans; round-base is the update's staleness.
	round, base int
	// start and end are the virtual times the client began and finished
	// executing (end is kept only by FedBuff, whose discard spans need it).
	start, end float64

	out     device.Outcome
	lt      LocalResult
	derived int // samples the job derived for training
	// stale marks a completed FedBuff update whose base version is too old
	// to aggregate: collect discards it.
	stale, trained bool
	err            error
}

// collect books every slot in order on this goroutine — the ledger, the
// device observer, the engine counters, the trace spans, the shard
// derivation histogram, the selector (sync rounds only), the controller
// and the logger each see the client-rounds in the order they were
// resolved — and then drops the slot's pin, once nothing needs the client
// instance any more. It returns the trained updates to aggregate, each
// weighted by FedBuff's staleness discount (1 in a sync round, which
// leaves the weight's bits unchanged).
func (r *run) collect(slots []slot) (deltas []tensor.Vector, weights []float64, err error) {
	for i := range slots {
		s := &slots[i]
		if s.err != nil {
			return nil, nil, s.err
		}
		r.eo.dev.Record(s.out)
		r.eo.clientSpans(s.start, s.base, s.id, s.tech, s.out)
		switch {
		case s.stale:
			r.discard(s.id, s.tech, s.out, s.end, s.base, "stale")
		case s.out.Completed:
			r.res.Ledger.Record(s.id, s.tech, s.out)
			r.eo.completed.Inc()
		default:
			r.res.Ledger.Record(s.id, s.tech, s.out)
			r.eo.dropped.Inc()
		}

		var statUtil, accImprove float64
		r.p.ObserveDerived(s.derived)
		if s.trained {
			deltas = append(deltas, s.lt.Delta)
			weights = append(weights, s.lt.Weight/math.Sqrt(1+float64(s.round-s.base)))
			statUtil, accImprove = s.lt.StatUtility, s.lt.AccImprove
		}
		if r.sel != nil {
			r.sel.Observe(selection.Feedback{ClientID: s.id, Round: s.round, Outcome: s.out, StatUtility: statUtil})
		}
		r.ctrl.Feedback(s.round, s.client, s.tech, s.out, accImprove)
		r.cfg.Logger.LogClientRound(clientRoundLog(s.round, s.id, s.tech, s.out, accImprove))
		r.p.Release(s.id)
	}
	return deltas, weights, nil
}

// discard books a client-round whose result FedBuff throws away — a stale
// update, or a task still in flight when the run ends — so every resource
// it consumed is waste.
func (r *run) discard(id int, tech opt.Technique, out device.Outcome, at float64, round int, note string) {
	r.res.Ledger.RecordDiscarded(id, tech, out)
	r.eo.discarded.Inc()
	r.eo.span(obs.Span{T: at, Kind: "discard", Round: round, Client: id, Note: note})
}

// noteDeadline keeps the deadline-difference feedback Decide reads at
// client id's next dispatch: how far past the deadline it ran, or zero
// once it completes.
func (r *run) noteDeadline(id int, out device.Outcome) {
	if out.Reason == device.DropDeadline {
		r.hfDiff[id] = out.DeadlineDiff
	} else if out.Completed {
		r.hfDiff[id] = 0
	}
}

// newRun performs the set-up both engines share: defaults, validation, the
// seeded global model on the configured backend, the reference work spec
// and deadline, the ledger and Result, the context pool and telemetry
// handles — and, last, resume, which must see the freshly initialized
// state. sel is nil for the async engine.
func newRun(kind string, p *population.Population, sel selection.Selector, ctrl Controller, cfg Config) (*run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := p.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("fl: population is empty")
	}
	r := &run{kind: kind, cfg: cfg, p: p, sel: sel, ctrl: ctrl,
		lazy: !p.Eager() || cfg.forceLazySelection, hfDiff: make(map[int]float64)}
	algorithm := "fedbuff"
	if !r.async() {
		if _, ok := sel.(selection.LazySelector); r.lazy && !ok {
			return nil, fmt.Errorf("fl: selector %q cannot drive a lazy population (implement selection.LazySelector)", sel.Name())
		}
		algorithm = sel.Name()
	}
	var err error
	if r.spec, err = nn.LookupSpec(cfg.Arch); err != nil {
		return nil, err
	}
	profile := p.Profile()
	r.rng = rngstate.New(cfg.Seed)
	if r.global, err = nn.NewModel(cfg.Arch, profile.Dim, profile.Classes, r.rng); err != nil {
		return nil, err
	}
	if err := setModelBackend(r.global, cfg.Backend); err != nil {
		return nil, err
	}
	r.refWork = workSpecFor(r.spec, p.MeanShardSize(), cfg.Epochs)

	r.deadline = cfg.DeadlineSec
	if r.deadline <= 0 {
		r.deadline = deadlineFromEstimates(p.CleanResponseEstimates(r.refWork), cfg.DeadlinePercentile)
		if r.async() {
			// FedBuff is lenient: the per-task timeout is twice the
			// synchronous auto deadline.
			r.deadline *= 2
		}
	}
	var ledger *metrics.Ledger
	if p.Eager() {
		ledger = metrics.NewLedger(n)
	} else {
		ledger = metrics.NewSparseLedger(n)
	}
	r.res = &Result{Algorithm: algorithm, Controller: ctrl.Name(), Ledger: ledger, DeadlineSec: r.deadline}
	r.pool = newContextPool(r.global)
	r.eo = newEngineObs(cfg.Metrics, cfg.Tracer)
	if r.async() {
		r.versions = map[int]tensor.Vector{0: r.global.Parameters().Clone()}
		r.inFlight = make(map[int]bool, cfg.Concurrency)
		r.evalCountdown = cfg.EvalEvery
	}
	if cfg.Checkpoint == nil {
		return r, nil
	}
	if r.fp, err = r.fingerprint(); err != nil {
		return nil, fmt.Errorf("fl: fingerprint: %w", err)
	}
	if len(cfg.Checkpoint.Resume) > 0 {
		if err := r.RestoreCheckpoint(cfg.Checkpoint.Resume); err != nil {
			return nil, fmt.Errorf("fl: resume: %w", err)
		}
	}
	return r, nil
}

func (r *run) async() bool { return r.kind == AsyncSnapshotKind }

// loop drives step until the configured number of rounds (aggregations)
// has completed or a boundary asks for a graceful stop.
func (r *run) loop(step func() (stop bool, err error)) (*Result, error) {
	for r.done < r.cfg.Rounds {
		stop, err := step()
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}
	return r.finish(), nil
}

// evalGlobal evaluates the global model on the shared holdout and records
// it as the accuracy after `rounds` completed rounds.
func (r *run) evalGlobal(rounds int) float64 {
	acc := r.global.Evaluate(r.p.GlobalTest())
	r.res.GlobalAccHistory = append(r.res.GlobalAccHistory, acc)
	r.res.EvalRounds = append(r.res.EvalRounds, rounds)
	r.eo.evals.Inc()
	r.eo.globalAcc.Set(acc)
	return acc
}

// boundary is the one place a round or aggregation ends — the engines'
// quiescent point. In order: publish population-cache telemetry (at this
// schedule-determined point, so exposition bytes never depend on
// Parallelism), count the round, sample the timeline — the full registry
// snapshot, the engine's per-round facts and the controller's contributed
// series — then run the checkpoint hooks: sampling first, so every snapshot
// carries the timeline through its own round (the stitching invariant). A
// round that selected nobody passes flush=false: it publishes nothing but is
// still sampled and still a checkpoint boundary. The hook protocol: poll
// Stop, then snapshot when one is due (stop with a sink, the periodic
// schedule, or an explicit request). Reports whether the run should end
// gracefully.
func (r *run) boundary(flush bool, facts ...obs.SeriesValue) (stop bool, err error) {
	if flush {
		r.p.FlushObs()
	}
	r.done++
	if tl := r.cfg.Timeline; tl != nil {
		if tc, ok := r.ctrl.(TimelineContributor); ok {
			facts = append(facts, tc.TimelineSeries()...)
		}
		tl.Sample(r.done-1, r.now, facts...)
	}
	ck := r.cfg.Checkpoint
	if ck == nil {
		return false, nil
	}
	stop = ck.Stop != nil && ck.Stop()
	if ck.Sink == nil {
		return stop, nil
	}
	if stop || (ck.Every > 0 && r.done%ck.Every == 0) {
		blob, err := r.CheckpointState()
		if err != nil {
			return stop, fmt.Errorf("fl: checkpoint at %d: %w", r.done, err)
		}
		if err := ck.Sink(blob); err != nil {
			return stop, fmt.Errorf("fl: checkpoint sink at %d: %w", r.done, err)
		}
	}
	return stop, nil
}

// finish turns the run's state into its Result. Tasks still in flight are
// FedBuff's over-selection bill: they consumed resources that never reach
// the model (Fig 2b / Fig 12's FedBuff inefficiency). On a graceful
// checkpoint stop the same drain applies — the discards land in this
// (partial) Result but not in the snapshot, which captured the tasks as
// still in flight so the resumed run can finish them.
func (r *run) finish() *Result {
	for r.tasks.Len() > 0 {
		task := r.popTask()
		r.discard(task.clientID, task.tech, task.outcome, task.finishAt, r.version, "overrun")
		r.p.Release(task.clientID)
	}
	res := r.res
	res.WallClockSeconds = r.now
	res.Ledger.WallClockSeconds = r.now
	res.CompletedRounds = r.done
	res.FinalClientAccs = evaluateClientsPop(r.global, r.p, r.cfg.EvalClients)
	res.FinalAccStats = metrics.ComputeAccuracyStats(res.FinalClientAccs)
	res.FinalGlobalAcc = r.global.Evaluate(r.p.GlobalTest())
	res.FinalParams = r.global.Parameters().Clone()
	r.p.FlushObs()
	return res
}
