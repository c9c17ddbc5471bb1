// Package trace synthesizes the client resource traces that the paper
// takes from real measurements: 4G/5G network bandwidth [Narayanan et al.],
// per-device compute capability [AI-Benchmark], and energy-driven
// availability [Yang et al.]. Each generator is a seeded stochastic process
// so experiments are reproducible, and each is shaped to preserve the
// statistical features the FLOAT agent must adapt to: bursty
// regime-switching bandwidth, a heavy-tailed device-speed population, and
// ON/OFF availability windows that are *not* fixed linear windows.
package trace

import (
	"fmt"

	"floatfl/internal/rngstate"
)

// NetKind selects the cellular technology of a bandwidth trace.
type NetKind int

const (
	// Net4G models LTE: lower means, frequent degradation.
	Net4G NetKind = iota
	// Net5G models mmWave/sub-6 5G: much higher peaks, but highly bursty
	// (the measurement study's key finding).
	Net5G
)

func (k NetKind) String() string {
	switch k {
	case Net4G:
		return "4G"
	case Net5G:
		return "5G"
	default:
		return fmt.Sprintf("NetKind(%d)", int(k))
	}
}

// bandwidth regimes: each NetKind has four Markov states with lognormal-ish
// jitter around a state mean (Mbps). Transition probabilities favour
// self-loops with occasional regime switches, mirroring the walking/driving
// traces used by the paper.
type netRegime struct {
	meanMbps float64
	jitter   float64 // multiplicative jitter stddev
}

var netRegimes = map[NetKind][]netRegime{
	Net4G: {
		{meanMbps: 1.5, jitter: 0.4}, // congested / edge of coverage
		{meanMbps: 8, jitter: 0.35},  // fair
		{meanMbps: 25, jitter: 0.3},  // good
		{meanMbps: 55, jitter: 0.25}, // excellent
	},
	Net5G: {
		{meanMbps: 15, jitter: 0.5},   // fallback to LTE-like throughput
		{meanMbps: 120, jitter: 0.4},  // mid-band
		{meanMbps: 450, jitter: 0.35}, // strong mmWave
		{meanMbps: 900, jitter: 0.3},  // peak
	},
}

// regime transition matrix (shared shape): sticky with occasional moves.
var regimeTransition = [4][4]float64{
	{0.80, 0.15, 0.04, 0.01},
	{0.10, 0.75, 0.12, 0.03},
	{0.03, 0.12, 0.75, 0.10},
	{0.01, 0.05, 0.16, 0.78},
}

// BandwidthTrace is a Markov-modulated bandwidth process. At(t) is
// deterministic for a given (kind, seed). The process advances in place as
// reads move forward and keeps only its last two steps, which is all a
// client round reads; an earlier step is re-derived from the seed.
type BandwidthTrace struct {
	Kind  NetKind
	seed  int64
	rng   *rngstate.Source
	state int
	n     int        // steps generated
	win   [2]float64 // steps n-2 and n-1 at index t&1, Mbps
}

// NewBandwidthTrace constructs a trace for the given technology and seed.
func NewBandwidthTrace(kind NetKind, seed int64) *BandwidthTrace {
	rng := rngstate.New(seed)
	return &BandwidthTrace{Kind: kind, seed: seed, rng: rng, state: rng.Intn(4)}
}

// At returns the bandwidth in Mbps at discrete time step t; a negative t
// reads step 0. A read before the two-step window is answered by a fresh
// copy of the trace and leaves the receiver untouched.
func (b *BandwidthTrace) At(t int) float64 {
	if t < 0 {
		t = 0
	}
	if t < b.n-2 {
		return NewBandwidthTrace(b.Kind, b.seed).At(t)
	}
	for ; b.n <= t; b.n++ {
		b.win[b.n&1] = b.step()
	}
	return b.win[t&1]
}

func (b *BandwidthTrace) step() float64 {
	// advance regime
	u := b.rng.Float64()
	var acc float64
	row := regimeTransition[b.state]
	next := b.state
	for j, p := range row {
		acc += p
		if u < acc {
			next = j
			break
		}
	}
	b.state = next
	r := netRegimes[b.Kind][b.state]
	// multiplicative jitter, floored so bandwidth never hits zero (a
	// disconnected client is modelled by the availability trace instead).
	f := 1 + r.jitter*b.rng.NormFloat64()
	if f < 0.1 {
		f = 0.1
	}
	return r.meanMbps * f
}
