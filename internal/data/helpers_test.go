package data

import (
	"math"
	"sort"

	"floatfl/internal/nn"
)

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
