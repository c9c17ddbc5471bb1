package tensor

import (
	"math"
	"math/rand"
)

// RandnInto fills v with N(0, sigma²) samples drawn from rng. Centralizing
// initialization here keeps every experiment deterministic under a seed.
func RandnInto(v Vector, sigma float64, rng *rand.Rand) {
	for i := range v {
		v[i] = rng.NormFloat64() * sigma
	}
}

// XavierInto fills v with the Glorot/Xavier-uniform initialization for a
// layer with the given fan-in and fan-out.
func XavierInto(v Vector, fanIn, fanOut int, rng *rand.Rand) {
	if fanIn+fanOut == 0 {
		v.Zero()
		return
	}
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	// float64(…) rounds rng.Float64's inlined product before the doubling,
	// which arm64 would otherwise fuse into it.
	for i := range v {
		v[i] = (float64(rng.Float64())*2 - 1) * limit
	}
}
