package opt

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// Uniform is the stream Quantize draws its rounding from, one value in
// [0, 1) per entry: *rngstate.Source provides it, whose values Quantize
// draws a block at a time, and so does *rand.Rand.
type Uniform interface {
	Float64() float64
}

// quantBlock is how many uniforms Quantize draws from a *rngstate.Source
// at a time.
const quantBlock = 256

// Quantize rounds every entry of v onto a symmetric b-bit integer grid
// using stochastic rounding (unbiased: E[quantized] = original). The grid
// scale adapts to the update's max magnitude, as FedPAQ-style update
// quantization does. b must be in [2, 32]; b >= 32 is a no-op. Entry i
// takes the i-th value of rng, so a *rngstate.Source, drawn by block, and
// a *rand.Rand over the same stream yield the same bits and leave the
// stream at the same position.
//
// The no-op guard must stay ahead of the level computation: for bits > 62,
// int64(1)<<(bits-1) would overflow (bits == 63 yields math.MinInt64, and
// larger shifts are undefined for the signed width), turning the grid scale
// negative or NaN and corrupting the update instead of passing it through.
func Quantize(v tensor.Vector, bits int, rng Uniform) {
	if bits >= 32 || len(v) == 0 {
		// Covers the whole bits >= 32 range, so the shift below is always
		// taken with bits in [2, 31] and cannot overflow.
		return
	}
	if bits < 2 {
		bits = 2
	}
	maxAbs := v.MaxAbs()
	if maxAbs == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1)) - 1 // e.g. 127 for 8-bit
	scale := maxAbs / levels
	// buf stays on the stack: the block draw is a call on the concrete
	// type, where an interface method would make it escape. A *rand.Rand
	// draws one value per call, but through a concrete, inlined call, not
	// a second indirect one.
	var buf [quantBlock]float64
	for len(v) > 0 {
		n := min(len(v), quantBlock)
		u := buf[:n]
		switch rng := rng.(type) {
		case *rngstate.Source:
			rng.Float64s(u)
		case *rand.Rand:
			for i := range u {
				u[i] = rng.Float64()
			}
		default:
			for i := range u {
				u[i] = rng.Float64()
			}
		}
		roundStochastic(v[:n], u, scale)
		v = v[n:]
	}
}

// roundStochastic puts each v[i] on the grid of step scale: v[i]/scale
// rounded down, or up when u[i] falls below its fractional part, without a
// branch on u[i].
//
// The floor is a truncation, carrying q's sign so that -0 stays -0, less
// one when q is a negative non-integer: the sign bit of q-t. math.Floor
// compiles to ROUNDSD, which keeps its destination register's upper half
// and so waits on the previous entry's result; truncating through an
// integer breaks that chain. Beyond 2⁵² every float is an integer, and
// NaN and ±Inf keep their bits, as math.Floor would. The step is floor -
// down, with down the sign of u[i] minus the fraction, -1 or 0: x - 0
// keeps a -0 floor's sign, where floor + up would make it +0.
func roundStochastic(v, u []float64, scale float64) {
	u = u[:len(v)]
	for i, x := range v {
		q := x / scale
		t := math.Copysign(float64(int64(q)), q)
		floor := t - float64(math.Float64bits(q-t)>>63)
		if !(math.Abs(q) < 1<<52) {
			floor = q
		}
		down := float64(int64(math.Float64bits(u[i]-(q-floor))) >> 63)
		v[i] = (floor - down) * scale
	}
}

// kthSmallest returns the value sort.Float64s would place at index k of a
// (0 ≤ k < len(a)), NaN sorting below every number, in O(len(a)) expected
// time; it reorders a. After the NaNs are moved to the front it is a
// quickselect over three-way partitions (ties, such as the zeros of frozen
// layers, leave in one step), with a median-of-three pivot; should pivots
// keep going bad, the remaining range is sorted instead, which bounds the
// worst case at O(n log n).
func kthSmallest(a []float64, k int) float64 {
	nan := 0
	for i, x := range a {
		if x != x {
			a[i], a[nan] = a[nan], x
			nan++
		}
	}
	if k < nan {
		return math.NaN()
	}
	a, k = a[nan:], k-nan
	for budget := 2 * bits.Len(uint(len(a))); len(a) > 1; budget-- {
		if budget == 0 {
			sort.Float64s(a)
			return a[k]
		}
		p := medianOf3(a[0], a[len(a)/2], a[len(a)-1])
		// Partition into a[:lt] < p, a[lt:gt] == p, a[gt:] > p.
		lt, i, gt := 0, 0, len(a)
		for i < gt {
			switch x := a[i]; {
			case x < p:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > p:
				gt--
				a[gt], a[i] = x, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			a = a[:lt]
		case k < gt:
			return p
		default:
			a, k = a[gt:], k-gt
		}
	}
	return a[0]
}

// medianOf3 returns the median of three non-NaN values.
func medianOf3(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	return math.Max(x, y)
}

// magScratch is the free list of PruneSmallest's magnitude buffers. A
// call takes one and returns it before it returns, so the list holds at
// most one per call that ever ran concurrently. It is not a sync.Pool:
// the race detector drops pooled items at random, and a dropped buffer is
// rebuilt by allocating.
var magScratch struct {
	mu   sync.Mutex
	free [][]float64
}

// takeMags returns a buffer of n scalars from the free list, allocating
// when the one on top holds fewer.
func takeMags(n int) []float64 {
	magScratch.mu.Lock()
	var buf []float64
	if last := len(magScratch.free) - 1; last >= 0 {
		buf = magScratch.free[last]
		magScratch.free[last] = nil
		magScratch.free = magScratch.free[:last]
	}
	magScratch.mu.Unlock()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// releaseMags returns buf to the free list; the caller must not use it
// again.
func releaseMags(buf []float64) {
	magScratch.mu.Lock()
	magScratch.free = append(magScratch.free, buf)
	magScratch.mu.Unlock()
}

// PruneSmallest zeroes the frac fraction of entries of v with smallest
// absolute value (magnitude pruning of the update). frac outside (0,1) is
// clamped; frac <= 0 is a no-op. Its scratch comes from a free list, so a
// warm call allocates nothing.
func PruneSmallest(v tensor.Vector, frac float64) {
	if frac <= 0 || len(v) == 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	k := int(math.Round(frac * float64(len(v))))
	if k <= 0 {
		return
	}
	if k >= len(v) {
		v.Zero()
		return
	}
	mags := takeMags(len(v))
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	threshold := kthSmallest(mags, k-1)
	releaseMags(mags)
	zeroed := 0
	// First pass: zero strictly-below-threshold entries.
	for i, x := range v {
		if math.Abs(x) < threshold {
			v[i] = 0
			zeroed++
		}
	}
	// Second pass: zero at-threshold entries until exactly k are zeroed
	// (ties at the threshold would otherwise over- or under-prune).
	for i, x := range v {
		if zeroed >= k {
			break
		}
		if x != 0 && math.Abs(x) == threshold {
			v[i] = 0
			zeroed++
		}
	}
}

// maxSharedMask is the most layers a shared freeze mask covers.
const maxSharedMask = 64

// sharedMasks is maxSharedMask trues followed by maxSharedMask falses: the
// mask that freezes the first k of n layers is its n-long window starting
// k trues before the first false.
var sharedMasks = func() []bool {
	m := make([]bool, 2*maxSharedMask)
	for i := range maxSharedMask {
		m[i] = true
	}
	return m
}()

// FrozenLayerMask returns the per-layer freeze mask for partial training:
// the first round(frac·n) layers are frozen, but the output layer always
// stays trainable (freezing the classifier head would make local training
// useless). frac <= 0 returns nil, meaning "train everything". Up to
// maxSharedMask layers the mask is a window of one shared array, so a
// warm client round builds none; callers must not modify it.
func FrozenLayerMask(numLayers int, frac float64) []bool {
	if frac <= 0 || numLayers <= 1 {
		return nil
	}
	if frac > 1 {
		frac = 1
	}
	k := int(math.Round(frac * float64(numLayers)))
	if k >= numLayers {
		k = numLayers - 1
	}
	if k <= 0 {
		return nil
	}
	if numLayers <= maxSharedMask {
		lo := maxSharedMask - k
		return sharedMasks[lo : lo+numLayers : lo+numLayers]
	}
	mask := make([]bool, numLayers)
	for i := 0; i < k; i++ {
		mask[i] = true
	}
	return mask
}

// ApplyToUpdate applies the technique's update-side transformation (prune
// and/or quantize) to a model delta in place. Partial training acts during
// training (via FrozenLayerMask), not here.
func ApplyToUpdate(t Technique, delta tensor.Vector, rng Uniform) {
	e := t.Effects()
	if e.PruneFrac > 0 {
		PruneSmallest(delta, e.PruneFrac)
	}
	if e.QuantBits > 0 {
		Quantize(delta, e.QuantBits, rng)
	}
}
