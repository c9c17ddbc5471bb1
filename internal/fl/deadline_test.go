package fl

import (
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/population"
	"floatfl/internal/trace"
)

// autoDeadline is the live auto-deadline path of newRun: the population's
// clean response estimates through the percentile-and-slack rule.
func autoDeadline(p *population.Population, w device.WorkSpec, percentile float64) float64 {
	return deadlineFromEstimates(p.CleanResponseEstimates(w), percentile)
}

// eagerDevices wraps a dense device population (with empty shards) — enough
// for the deadline path, which never reads data.
func eagerDevices(t *testing.T, pop []*device.Client) *population.Population {
	t.Helper()
	p, err := population.WrapEager(&data.Federation{Train: make([][]nn.Sample, len(pop))}, pop)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAutoDeadlineEmptyPopulation pins the degenerate fallback: no clients
// means no estimates, which must yield the 60-second default rather than a
// zero (or NaN) deadline that would drop every round.
func TestAutoDeadlineEmptyPopulation(t *testing.T) {
	w := device.WorkSpec{RefFLOPsPerSample: 1e6, RefParams: 2e5, Samples: 32, Epochs: 2}
	if got := autoDeadline(eagerDevices(t, nil), w, 90); got != 60 {
		t.Fatalf("auto deadline of an empty population = %v, want 60", got)
	}
}

// TestDeadlineFromEstimatesDegenerate covers the shared percentile-and-
// slack rule behind both the eager and lazy deadline paths.
func TestDeadlineFromEstimatesDegenerate(t *testing.T) {
	if got := deadlineFromEstimates(nil, 90); got != 60 {
		t.Fatalf("no estimates: %v, want 60", got)
	}
	if got := deadlineFromEstimates([]float64{0, 0, 0}, 90); got != 60 {
		t.Fatalf("all-zero estimates: %v, want 60", got)
	}
	if got, want := deadlineFromEstimates([]float64{10}, 50), 15.0; got != want {
		t.Fatalf("single estimate: %v, want %v", got, want)
	}
}

// TestAutoDeadlineEagerIsExact: an eager population is measured exactly at
// any size — the full-scan formula bit-for-bit, because the committed
// goldens embed its deadlines. 3048 sits above the 2048-client sample cap
// the deleted dense-era AutoDeadline applied and no run ever had.
func TestAutoDeadlineEagerIsExact(t *testing.T) {
	for _, n := range []int{50, 3048} {
		pop, err := device.NewPopulation(device.PopulationConfig{
			Clients: n, Scenario: trace.ScenarioStatic, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := device.WorkSpec{RefFLOPsPerSample: 2e6, RefParams: 2e5, Samples: 48, Epochs: 2}
		ests := make([]float64, len(pop))
		for i, c := range pop {
			ests[i] = device.EstimateCleanResponseSeconds(c, w)
		}
		want := metrics.Percentile(ests, 90) * 1.5
		if got := autoDeadline(eagerDevices(t, pop), w, 90); got != want {
			t.Fatalf("auto deadline (n=%d) = %v, want full-scan %v", n, got, want)
		}
	}
}

// TestAutoDeadlineLazyIsSampled: a lazy population larger than its
// 1024-client statistics sample is estimated over the deterministic strided
// sample (not the full scan), each sampled estimate equals the derived
// client's, and the sampled deadline lands inside the full population's
// estimate envelope.
func TestAutoDeadlineLazyIsSampled(t *testing.T) {
	const n, sample = 1500, 1024
	cfg := lazyPopConfig(n)
	lazy, err := population.NewLazy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := population.NewLazy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := device.WorkSpec{RefFLOPsPerSample: 2e6, RefParams: 2e5, Samples: 48, Epochs: 2}
	ests := lazy.CleanResponseEstimates(w)
	if len(ests) != sample {
		t.Fatalf("lazy population estimated over %d clients, want the %d-client sample", len(ests), sample)
	}
	for i, e := range ests {
		if want := device.EstimateCleanResponseSeconds(ref.Client(i*n/sample), w); e != want {
			t.Fatalf("estimate %d = %v, want client %d's %v", i, e, i*n/sample, want)
		}
	}
	got := deadlineFromEstimates(ests, 90)
	lo, hi := ests[0], ests[0]
	for id := 0; id < n; id++ {
		e := device.EstimateCleanResponseSeconds(ref.Client(id), w)
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	if got < lo || got > hi*1.5 {
		t.Fatalf("sampled deadline %v outside population envelope [%v, %v]", got, lo, hi*1.5)
	}
}
