package experiment

import (
	"math"
	"testing"

	"floatfl/internal/trace"
)

func TestSweepStats(t *testing.T) {
	s := newSweepStats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 || math.Abs(s.Std-2) > 1e-9 || s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Fatalf("stats = %+v", s)
	}
	if newSweepStats(nil).N != 0 {
		t.Fatal("empty stats should be zero")
	}
	if s.String() == "" {
		t.Fatal("String should render")
	}
}

func TestSweepRunsAndVaries(t *testing.T) {
	res, err := Sweep(tiny, RunSpec{
		Dataset: "femnist", Algo: "fedavg",
		Scenario: trace.ScenarioDynamic, DeadlinePercentile: 50,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 3 || res.AvgAccuracy.N != 3 {
		t.Fatalf("sweep shape wrong: %+v", res)
	}
	// Independent seeds must actually change the outcome.
	if res.Dropped.Min == res.Dropped.Max && res.AvgAccuracy.Min == res.AvgAccuracy.Max {
		t.Fatal("sweep seeds produced identical runs")
	}
	if res.WastedCompute.Mean <= 0 {
		t.Fatal("wasted compute not aggregated")
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(tiny, RunSpec{Dataset: "femnist"}, 0); err == nil {
		t.Fatal("accepted zero seeds")
	}
	if _, err := Sweep(tiny, RunSpec{Dataset: "nope"}, 1); err == nil {
		t.Fatal("accepted unknown dataset")
	}
}
