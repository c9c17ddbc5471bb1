package data

import (
	"math"
	"sort"

	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
)

// LabelHistogram returns the per-class sample counts of a shard.
func LabelHistogram(samples []nn.Sample, classes int) []int {
	h := make([]int, classes)
	for _, s := range samples {
		if s.Label >= 0 && s.Label < classes {
			h[s.Label]++
		}
	}
	return h
}

// SampleDirichlet is sampleDirichletInto into a fresh k-vector (nil for
// k ≤ 0).
func SampleDirichlet(k int, alpha float64, rng *rngstate.Source) []float64 {
	if k <= 0 {
		return nil
	}
	return sampleDirichletInto(make([]float64, k), alpha, rng)
}

// skewIndex summarizes how non-IID a shard is: 0 means uniform over
// classes, 1 means single-class. It is the normalized L1 distance between
// the shard's label distribution and uniform. Only tests measure it.
func skewIndex(samples []nn.Sample, classes int) float64 {
	if len(samples) == 0 || classes <= 1 {
		return 0
	}
	h := LabelHistogram(samples, classes)
	var l1 float64
	for _, c := range h {
		l1 += math.Abs(float64(c)/float64(len(samples)) - 1/float64(classes))
	}
	// Max possible L1 distance is 2*(1 - 1/classes).
	return l1 / (2 * (1 - 1/float64(classes)))
}

// profileNames returns the registered dataset names, sorted.
func profileNames() []string {
	out := make([]string, 0, len(profiles))
	for k := range profiles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
