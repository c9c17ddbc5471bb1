package experiment

import (
	"fmt"

	"floatfl/internal/metrics"
)

// SweepStats summarizes one metric across seeds.
type SweepStats struct {
	Mean, Std, Min, Max float64
	N                   int
}

func newSweepStats(xs []float64) SweepStats {
	if len(xs) == 0 {
		return SweepStats{}
	}
	s := SweepStats{
		Mean: metrics.Mean(xs),
		Std:  metrics.Std(xs),
		Min:  xs[0],
		Max:  xs[0],
		N:    len(xs),
	}
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// String renders "mean ± std".
func (s SweepStats) String() string { return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.Std) }

// SweepResult aggregates a run spec's headline metrics over several seeds.
type SweepResult struct {
	Spec  RunSpec
	Seeds int

	AvgAccuracy   SweepStats
	Dropped       SweepStats
	WastedCompute SweepStats // hours
	WastedComm    SweepStats // hours
}

// Sweep runs the spec across `seeds` independent seeds (data, population,
// and agent all reseeded) and returns mean ± std for the headline metrics.
// The figures in the paper are single runs; sweeps quantify how much of a
// measured gap is seed noise.
func Sweep(sc Scale, spec RunSpec, seeds int) (*SweepResult, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("experiment: Sweep needs a positive seed count, got %d", seeds)
	}
	var accs, drops, wastedC, wastedM []float64
	for i := 0; i < seeds; i++ {
		s := spec
		s.SeedOffset = spec.SeedOffset + int64(i)*7919
		res, err := Run(sc, s)
		if err != nil {
			return nil, err
		}
		accs = append(accs, res.FinalAccStats.Average)
		drops = append(drops, float64(res.Ledger.TotalDrops))
		wastedC = append(wastedC, res.Ledger.Wasted.ComputeHours)
		wastedM = append(wastedM, res.Ledger.Wasted.CommHours)
	}
	return &SweepResult{
		Spec:          spec,
		Seeds:         seeds,
		AvgAccuracy:   newSweepStats(accs),
		Dropped:       newSweepStats(drops),
		WastedCompute: newSweepStats(wastedC),
		WastedComm:    newSweepStats(wastedM),
	}, nil
}
