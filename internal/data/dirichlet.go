package data

import (
	"math"

	"floatfl/internal/rngstate"
)

// sampleGamma draws from Gamma(shape, 1) using the Marsaglia–Tsang method,
// with the standard boosting trick for shape < 1. The Dirichlet sampler
// builds on it. shape must be positive. Each float64(…) rounds its product
// on its own, so no target fuses it into a multiply-add; the cube needs one
// too, because the compiler would fuse it into 1-v across statements.
func sampleGamma(shape float64, rng *rngstate.Source) float64 {
	if shape <= 0 {
		panic("data: sampleGamma requires positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return sampleGamma(shape+1, rng) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + float64(c*x)
			if v > 0 {
				break
			}
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// sampleDirichletInto draws a point from the (k-1)-simplex with
// concentration alpha (symmetric Dirichlet), k = len(out) ≥ 1, into out;
// every entry is overwritten. Small alpha yields near-one-hot label
// distributions — the paper's highly non-IID regime (alpha = 0.01–0.1);
// large alpha approaches uniform (IID).
func sampleDirichletInto(out []float64, alpha float64, rng *rngstate.Source) []float64 {
	var sum float64
	for i := range out {
		g := sampleGamma(alpha, rng)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// All draws underflowed (possible for tiny alpha): fall back to a
		// one-hot distribution on a random class, which is the alpha→0 limit.
		out[rng.Intn(len(out))] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// sampleCategorical draws an index according to the probability vector p.
func sampleCategorical(p []float64, rng *rngstate.Source) int {
	u := rng.Float64()
	var acc float64
	for i, pi := range p {
		acc += pi
		if u < acc {
			return i
		}
	}
	return len(p) - 1
}
