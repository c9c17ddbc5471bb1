package main

import (
	"math"
	"sort"
)

// warmupRounds is how many leading round intervals of every lap are kept
// out of the percentiles: caches fill, pools grow and the first GC cycles
// settle there.
const warmupRounds = 5

// beyond is how many samples must lie past a percentile before the ladder
// reports it (choosing-metrics §1).
const beyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// highestPercentile returns the highest of p50/p90/p99/p99.9 that still has
// at least `beyond` of n samples past it, 0 when not even the median does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} {
		if n*(1000-perMille) >= beyond*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// dropWarmup removes the first warmupRounds intervals of one lap.
func dropWarmup(intervals []float64) []float64 {
	if len(intervals) <= warmupRounds {
		return nil
	}
	return intervals[warmupRounds:]
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver applies to the ten runs of a metric. Fewer than two values have
// no spread: all three are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median, the
// run-to-run spread the bounds are judged against.
func spreadShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// interval is a half-open stretch of real time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that no child covers: children may
// nest, touch, overlap (parallel steps) or stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range cs {
		if c.end <= edge {
			continue
		}
		if c.start > edge {
			edge = c.start
		}
		covered += c.end - edge
		edge = c.end
	}
	return parent.end - parent.start - covered
}
