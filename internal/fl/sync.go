package fl

import (
	"floatfl/internal/device"
	"floatfl/internal/obs"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/tensor"
)

// RunSyncPop executes synchronous federated training: each round the
// selector picks ClientsPerRound clients, every selected client trains
// locally under the controller's chosen technique, completions are
// FedAvg-aggregated, and the round's wall clock is the slowest participant
// (or the deadline when anyone timed out). This is the engine behind
// FedAvg, Oort, and REFL runs, with or without FLOAT.
//
// Each round runs in three phases: a sequential dispatch pass (selection,
// client acquisition, resource snapshot + controller decision per client,
// in selection order), a parallel fan-out (device.Execute, then for a
// completed client its shard derivation + TrainLocal against a snapshot of
// the global model, Config.Parallelism workers), and the sequential collect
// pass both engines share, which books each client-round — ledger,
// telemetry, selector, controller and log — in selection order and then
// releases its client. The fan-out schedule cannot influence the results,
// so any Parallelism produces bit-identical output.
//
// With an eager population the selector sees the classic checked-in dense
// pool; a lazy population requires a selection.LazySelector, which probes
// O(selected) clients instead of scanning the population. Memory per round
// is then bounded by the population cache capacity plus the selected set;
// the sequential passes derive the clients they miss inline, and only shard
// derivation runs on the workers.
func RunSyncPop(p *population.Population, sel selection.Selector,
	ctrl Controller, cfg Config) (*Result, error) {

	r, err := newRun(SyncSnapshotKind, p, sel, ctrl, cfg)
	if err != nil {
		return nil, err
	}
	return r.loop(r.syncRound)
}

// syncRound runs one synchronous round end to end.
func (r *run) syncRound() (stop bool, err error) {
	// Virtual time at which this round starts; all spans for the round are
	// anchored to it, so traces never depend on wall clock.
	round, start := r.done, r.now
	var ids []int
	withPhase("select", func() { ids = r.selectClients(round) })
	if len(ids) == 0 {
		// Nobody checked in: no round happened, so nothing is flushed,
		// counted, evaluated or logged — but time-series consumers and the
		// checkpoint schedule still see the boundary.
		return r.boundary(false,
			obs.SeriesValue{Name: "round_selected"},
			obs.SeriesValue{Name: "round_completed"},
			obs.SeriesValue{Name: "round_dropped"},
			obs.SeriesValue{Name: "round_wall_seconds"})
	}
	r.eo.span(obs.Span{T: start, Kind: "select", Round: round, Client: -1})
	r.eo.selected.Add(int64(len(ids)))

	slots := r.dispatch(round, start, ids)
	r.eo.span(obs.Span{T: start, Kind: "decide", Round: round, Client: -1})
	r.fanOut(round, ids, slots)
	deltas, weights, err := r.collect(slots)
	if err != nil {
		return false, err
	}
	return r.closeRound(round, slots, deltas, weights)
}

// selectClients picks the round's participants. Lazy selection probes
// availability itself — an O(selected) walk. The eager path is what real FL
// servers do: dispatch only to clients that checked in, so the pool is
// filtered to currently-available devices (clients can still drop out
// mid-round if they go offline after selection).
func (r *run) selectClients(round int) []int {
	info := selection.RoundInfo{Round: round, Work: r.refWork, DeadlineSec: r.deadline}
	if r.lazy {
		return r.sel.(selection.LazySelector).SelectLazy(info, r.p, r.cfg.ClientsPerRound)
	}
	pop := r.p.AllClients()
	checkedIn := make([]*device.Client, 0, len(pop))
	for _, c := range pop {
		if c.ResourcesAt(round).Available {
			checkedIn = append(checkedIn, c)
		}
	}
	if len(checkedIn) == 0 {
		return nil
	}
	return r.sel.Select(info, checkedIn, r.cfg.ClientsPerRound)
}

// dispatch acquires (pins) each selected client, snapshots resources, and
// lets the controller decide, in selection order, before anything
// executes. All decisions in a round therefore observe controller state as
// of the round start, and workers receive fully-resolved slots — they
// never touch the population cache.
func (r *run) dispatch(round int, start float64, ids []int) []slot {
	slots := make([]slot, len(ids))
	for i, id := range ids {
		c := r.p.AcquireClient(id)
		tech := r.ctrl.Decide(round, c, c.ResourcesAt(round), r.hfDiff[id])
		slots[i] = slot{id: id, client: c, tech: tech, round: round, base: round, start: start}
		r.eo.decide(tech)
	}
	return slots
}

// fanOut runs per-client cost-model execution — sized by the shard's
// sample count, without deriving a sample — and, for a client that
// completed, its shard derivation into the worker's buffer and local
// training against a frozen snapshot of the global parameters. Concurrent
// device.Execute calls are safe only across distinct clients, so a
// duplicate-bearing selection degrades to the sequential schedule.
func (r *run) fanOut(round int, ids []int, slots []slot) {
	// Jobs offered per fan-out — deliberately not busy workers, which would
	// vary with Parallelism and break cross-P byte identity.
	r.eo.fanoutJobs.Observe(float64(len(slots)))
	par := r.cfg.Parallelism
	if hasDuplicateIDs(ids) {
		par = 1
	}
	r.pool.ensure(par, len(slots))
	// Parameters() is a zero-copy view; it is safe to share across the
	// fan-out because the global model is frozen until ApplyAggregate.
	globalParams := r.global.Parameters()
	withPhase("train", func() {
		forEachSlot(len(slots), par, func(worker, job int) {
			s := &slots[job]
			work := workSpecFor(r.spec, r.p.ShardSize(s.id, &r.pool.ctx(worker).shard), r.cfg.Epochs)
			s.out, s.err = device.Execute(s.client, round, work, s.tech, r.deadline)
			if s.err == nil && s.out.Completed {
				r.trainJob(worker, job, s, globalParams)
			}
		})
	})
}

// closeRound aggregates, advances the clock by the round's wall clock —
// the slowest trained participant, or the deadline when anyone timed out —
// notes each client's deadline feedback, and reports the round.
func (r *run) closeRound(round int, slots []slot, deltas []tensor.Vector, weights []float64) (stop bool, err error) {
	var wall float64
	timedOut := false
	for i := range slots {
		s := &slots[i]
		r.noteDeadline(s.id, s.out)
		if s.out.Reason == device.DropDeadline {
			timedOut = true
		} else if s.trained && s.out.Cost.TotalSeconds > wall {
			wall = s.out.Cost.TotalSeconds
		}
	}
	if timedOut {
		wall = r.deadline
	}
	withPhase("aggregate", func() { ApplyAggregate(r.global, deltas, weights) })
	r.res.Ledger.WallClockSeconds += wall
	r.now += wall
	completed, dropped := len(deltas), len(slots)-len(deltas)
	r.eo.span(obs.Span{T: r.now, Kind: "aggregate", Round: round, Client: -1})
	r.eo.rounds.Inc()
	r.eo.roundWall.Observe(wall)

	summary := RoundSummaryLog{Round: round, Selected: len(slots), Completed: completed, Dropped: dropped, WallSeconds: wall}
	if (round+1)%r.cfg.EvalEvery == 0 || round == r.cfg.Rounds-1 {
		acc := r.evalGlobal(round + 1)
		summary.GlobalAcc = &acc
	}
	r.cfg.Logger.LogRoundSummary(summary)
	return r.boundary(true,
		obs.SeriesValue{Name: "round_selected", Value: float64(len(slots))},
		obs.SeriesValue{Name: "round_completed", Value: float64(completed)},
		obs.SeriesValue{Name: "round_dropped", Value: float64(dropped)},
		obs.SeriesValue{Name: "round_wall_seconds", Value: wall})
}
