package fl

import (
	"context"
	"runtime/pprof"

	"floatfl/internal/obs"
)

// TimelineContributor is implemented by controllers that expose extra
// per-round timeline series beyond what the metrics registry already
// records — core.Float contributes the RL agent's per-action visit
// distribution, which is how a timeline shows *when* the policy shifted.
// TimelineSeries is called only at the engines' quiescent boundaries
// (single-threaded), must be read-only, and must return name-sorted,
// deterministically computed values: the series land verbatim in the
// byte-compared timeline export.
type TimelineContributor interface {
	TimelineSeries() []obs.SeriesValue
}

// withPhase runs fn under a pprof "phase" label so -cpuprofile output
// attributes samples to round phases (select/train/aggregate). Goroutines
// spawned inside fn — the forEachSlot worker pool — inherit the label, so
// fan-out training time is attributed too. Labels live outside the
// determinism contract: they annotate the profiler's sampling, never the
// run's outputs.
func withPhase(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		fn()
	})
}
