package tensor

import "math"

// Uniform is a stream of values in [0, 1), one per Float64 call. Every
// seeded stream in the simulator is an *rngstate.Source, which provides
// it; so does a *rand.Rand.
type Uniform interface {
	Float64() float64
}

// RandnInto fills v with N(0, sigma²) samples drawn from rng. Centralizing
// initialization here keeps every experiment deterministic under a seed.
func RandnInto(v Vector, sigma float64, rng interface{ NormFloat64() float64 }) {
	for i := range v {
		v[i] = rng.NormFloat64() * sigma
	}
}

// XavierInto fills v with the Glorot/Xavier-uniform initialization for a
// layer with the given fan-in and fan-out.
func XavierInto(v Vector, fanIn, fanOut int, rng Uniform) {
	if fanIn+fanOut == 0 {
		v.Zero()
		return
	}
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	// float64(…) rounds rng.Float64's product before the doubling, which
	// arm64 would otherwise fuse into it.
	for i := range v {
		v[i] = (float64(rng.Float64())*2 - 1) * limit
	}
}
