package fl

import (
	"container/heap"
	"fmt"

	"floatfl/internal/device"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/tensor"
)

// asyncTask is one in-flight client execution in the FedBuff simulation.
// The client pointer is pinned at launch and released once the barrier
// has collected the popped task (or in the end-of-run drain), so eviction
// can never invalidate an in-flight task. The task holds no samples: the
// barrier job that trains on them derives them.
type asyncTask struct {
	clientID     int
	client       *device.Client
	startVersion int
	finishAt     float64
	outcome      device.Outcome
	tech         opt.Technique
}

type taskHeap []asyncTask

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return h[i].finishAt < h[j].finishAt }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(asyncTask)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// isTooStale implements FedBuff's staleness admission rule: an update is
// usable only while its base version snapshot is still retained and its
// staleness is at most the cap — a staleness of exactly StalenessCap is
// the last admissible value (the boundary is inclusive).
func isTooStale(staleness, cap int, haveVersion bool) bool {
	return !haveVersion || staleness > cap
}

// evictStaleVersion drops the one snapshot that just aged out of the
// admissible window after advancing to `version`: any update based on it
// would have staleness > cap by the time the next aggregation completes.
// The retained window is exactly {version-cap .. version}.
func evictStaleVersion(versions map[int]tensor.Vector, version, cap int) {
	delete(versions, version-cap-1)
}

// RunAsyncPop executes FedBuff: Concurrency clients train simultaneously
// and asynchronously against the model version they started from;
// completed updates enter a buffer and every BufferK arrivals are
// aggregated with staleness-discounted weights. FedBuff has no hard round
// deadline — tasks run until a generous timeout — which is why it
// tolerates dropouts but burns far more resources than synchronous FL
// (Fig 2b, Fig 12).
//
// The discrete-event loop (launch decisions, cost-model execution, pops)
// stays on one goroutine; the expensive part — local training of buffered
// updates — fans out across Config.Parallelism workers at each aggregation
// barrier. There every client-round popped since the last barrier is
// booked in pop order by the same collect pass a synchronous round uses:
// ledger, telemetry, controller feedback and log. Launch-time decisions
// therefore observe controller state as of the last aggregation,
// identically for every Parallelism.
//
// With an eager population the launcher scans the dense pool for eligible
// clients, exactly as the historical engine did. A lazy population is
// sampled instead: each launch pass walks a fresh random permutation under
// a probe budget of O(concurrency), deriving only the clients it actually
// considers, so resident state stays bounded by the population caches plus
// the in-flight set.
func RunAsyncPop(p *population.Population, ctrl Controller, cfg Config) (*Result, error) {
	r, err := newRun(AsyncSnapshotKind, p, nil, ctrl, cfg)
	if err != nil {
		return nil, err
	}
	return r.loop(r.asyncStep)
}

// asyncStep advances the event loop by one task completion: refill the
// open slots, pop the earliest finisher, and — once BufferK updates are
// buffered — run the aggregation barrier, the async engine's boundary.
func (r *run) asyncStep() (stop bool, err error) {
	withPhase("select", func() { err = r.launch() })
	if err != nil {
		return false, err
	}
	if r.tasks.Len() == 0 {
		return false, fmt.Errorf("fl: FedBuff deadlocked with no in-flight tasks")
	}
	r.pop()
	if len(r.jobs) < r.cfg.BufferK {
		return false, nil
	}
	return r.barrier()
}

// traceStep is the trace step the virtual clock is in: traces advance one
// step per timeout interval.
func (r *run) traceStep() int { return int(r.now / r.deadline) }

// launch fills the open concurrency slots. The eager path scans the dense
// pool for eligible clients and launches from a shuffle of them. The lazy
// path walks a fresh random permutation under a probe budget proportional
// to the open slots (selection.Probe), skipping in-flight clients and
// probing the rest through the unpinned cache; only actual launches pin.
// Probe re-reads the open slots before each draw, so launching from inside
// the walk cannot overfill them.
func (r *run) launch() error {
	step := r.traceStep()
	if !r.lazy {
		pop := r.p.AllClients()
		eligible := make([]int, 0, len(pop))
		for _, c := range pop {
			if !r.inFlight[c.ID] && c.ResourcesAt(step).Available {
				eligible = append(eligible, c.ID)
			}
		}
		r.rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
		for _, id := range eligible {
			if len(r.inFlight) >= r.cfg.Concurrency {
				break
			}
			if err := r.launchOne(id); err != nil {
				return err
			}
		}
		return nil
	}
	openSlots := func() int { return r.cfg.Concurrency - len(r.inFlight) }
	if openSlots() <= 0 {
		return nil
	}
	n := r.p.NumClients()
	var err error
	selection.Probe(r.p, step, selection.NewPermSampler(r.rng, n), selection.ProbeBudget(openSlots(), n),
		func() int {
			if err != nil {
				return 0
			}
			return openSlots()
		},
		func(id int) bool { return r.inFlight[id] },
		func(id int, available bool) {
			if available && err == nil {
				err = r.launchOne(id)
			}
		})
	return err
}

// launchOne pins client id, lets the controller decide, runs the cost
// model — sized by the shard's sample count — and pushes the task.
func (r *run) launchOne(id int) error {
	c := r.p.AcquireClient(id)
	step := r.traceStep()
	tech := r.ctrl.Decide(r.version, c, c.ResourcesAt(step), r.hfDiff[id])
	r.eo.decide(tech)
	r.eo.selected.Inc()
	work := workSpecFor(r.spec, r.p.ShardSize(id, &r.pool.sizing), r.cfg.Epochs)
	out, err := device.Execute(c, step, work, tech, r.deadline)
	if err != nil {
		r.p.Release(id)
		return err
	}
	dur := out.Cost.TotalSeconds
	if dur <= 0 {
		dur = 1 // unavailability is detected after a short ping
	}
	r.inFlight[id] = true
	heap.Push(&r.tasks, asyncTask{
		clientID:     id,
		client:       c,
		startVersion: r.version,
		finishAt:     r.now + dur,
		outcome:      out,
		tech:         tech,
	})
	return nil
}

// popTask removes the earliest-finishing task from the in-flight set.
func (r *run) popTask() asyncTask {
	task := heap.Pop(&r.tasks).(asyncTask)
	delete(r.inFlight, task.clientID)
	return task
}

// pop advances the clock to the earliest finisher and resolves it into a
// pending slot, queued as a training job when its update is usable. Its
// deadline feedback is noted now, not at the barrier: a popped client can
// be relaunched before then, and Decide reads it. Everything else about
// the client-round is booked at the barrier, in pop order.
func (r *run) pop() {
	task := r.popTask()
	r.now = task.finishAt
	out := task.outcome
	r.noteDeadline(task.clientID, out)
	s := slot{id: task.clientID, client: task.client, tech: task.tech, round: r.version, base: task.startVersion,
		start: task.finishAt - out.Cost.TotalSeconds, end: task.finishAt, out: out}
	if out.Completed {
		_, haveVersion := r.versions[task.startVersion]
		if s.stale = isTooStale(r.version-task.startVersion, r.cfg.StalenessCap, haveVersion); !s.stale {
			r.jobs = append(r.jobs, len(r.pending))
		}
	}
	r.pending = append(r.pending, s)
}

// barrier is the aggregation barrier: derive and train the buffered
// updates in parallel (the global model is frozen until the batch is
// applied), collect every client-round popped since the last barrier in
// pop order on this goroutine, aggregate with FedBuff's staleness
// discount, and publish the new model version.
func (r *run) barrier() (stop bool, err error) {
	slots, jobs := r.pending, r.jobs
	r.pool.ensure(r.cfg.Parallelism, len(jobs))
	r.eo.fanoutJobs.Observe(float64(len(jobs)))
	withPhase("train", func() {
		forEachSlot(len(jobs), r.cfg.Parallelism, func(worker, job int) {
			s := &slots[jobs[job]]
			r.trainJob(worker, job, s, r.versions[s.base])
		})
	})
	deltas, weights, err := r.collect(slots)
	if err != nil {
		return false, err
	}
	clear(slots) // a shorter next batch must not leave released clients reachable
	r.pending, r.jobs = slots[:0], jobs[:0]

	withPhase("aggregate", func() { ApplyAggregate(r.global, deltas, weights) })
	r.eo.span(obs.Span{T: r.now, Kind: "aggregate", Round: r.version, Client: -1})
	r.eo.rounds.Inc()
	r.version++
	r.versions[r.version] = r.global.Parameters().Clone()
	evictStaleVersion(r.versions, r.version, r.cfg.StalenessCap)
	r.evalCountdown--
	if r.evalCountdown <= 0 || r.done+1 == r.cfg.Rounds {
		r.evalGlobal(r.done + 1)
		r.evalCountdown = r.cfg.EvalEvery
	}
	return r.boundary(true,
		obs.SeriesValue{Name: "round_buffered_jobs", Value: float64(len(jobs))},
		obs.SeriesValue{Name: "model_version", Value: float64(r.version)})
}
