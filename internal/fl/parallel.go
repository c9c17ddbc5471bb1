package fl

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the engines' parallel execution layer. Both engines fan the
// per-client work of a round — device.Execute plus TrainLocal in a sync
// round, TrainLocal alone at a FedBuff barrier — out to a pool of
// Parallelism workers, which write their results into the round's slots.
// One collect pass then books the slots in the order they were resolved
// (dispatch order, or FedBuff's pop order) on a single goroutine:
// everything order-sensitive — aggregation inputs, ledger records,
// telemetry, selector feedback, controller feedback, logging — happens
// there.
//
// The determinism contract: for a fixed Config, Parallelism=N produces
// bit-identical results to Parallelism=1. Three properties guarantee it:
//
//  1. Per-client work is a pure function of per-client state. Each job
//     reads the shared global model only through Clone()/Parameters()
//     (never mutated during a fan-out) and mutates only its own client's
//     traces; its RNG is derived from (Seed, round, clientID), never
//     shared.
//  2. Results land in slots indexed by dispatch (or pop) order, so collect
//     applies them in the same sequence regardless of which worker
//     finished first.
//  3. Every stateful callback (metrics.Ledger, selection.Selector.Observe,
//     Controller.Feedback, RoundLogger) runs in collect only — they stay
//     single-threaded by construction.
//
// A lazy population's shards are derived inside the jobs, into the
// worker's buffer (a pure function of (seed, clientID)); its device clients
// are derived by the sequential passes that miss them, which keep every
// cache mutation to themselves.
func defaultParallelism() int { return runtime.NumCPU() }

// forEachSlot runs fn(worker, slot) for every slot in [0, n) across up to
// `parallelism` goroutines. worker identifies the executing goroutine
// (0 ≤ worker < parallelism) so fn can use per-worker scratch (see
// contextPool); fn must only write state owned by its slot or its worker.
// The call returns once every slot has run. parallelism <= 1 runs inline
// as worker 0, which is the reference sequential schedule the parallel
// schedules must match bit-for-bit.
func forEachSlot(n, parallelism int, fn func(worker, slot int)) {
	if n <= 0 {
		return
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// hasDuplicateIDs reports whether a selection contains the same client
// twice. Concurrent device.Execute calls are only safe across *distinct*
// clients (each call mutates that client's battery/availability traces),
// so a duplicate-bearing selection falls back to the sequential schedule —
// which is bit-identical anyway.
func hasDuplicateIDs(ids []int) bool {
	seen := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		if _, ok := seen[id]; ok {
			return true
		}
		seen[id] = struct{}{}
	}
	return false
}
