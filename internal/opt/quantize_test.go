package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// quantizeBranchy is Quantize's body before it drew by block: one
// rand.Rand draw per entry and a branch on it. It is the oracle Quantize
// is held to, bit for bit.
func quantizeBranchy(v tensor.Vector, bits int, rng *rand.Rand) {
	if bits >= 32 || len(v) == 0 {
		return
	}
	if bits < 2 {
		bits = 2
	}
	maxAbs := v.MaxAbs()
	if maxAbs == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1)) - 1
	scale := maxAbs / levels
	for i, x := range v {
		q := x / scale
		floor := math.Floor(q)
		frac := q - floor
		if rng.Float64() < frac {
			floor++
		}
		v[i] = floor * scale
	}
}

// quantizeCase builds a vector of n entries whose values cycle through the
// edges: ±0, NaN (two payloads), ±Inf only when inf is set (an Inf makes
// the scale Inf), subnormals, ±maxAbs itself, exact grid points, and
// normals of either sign.
func quantizeCase(n int, inf bool, rng *rand.Rand) tensor.Vector {
	const maxAbs = 3.5
	edges := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8000000000123),
		5e-324, -5e-324, math.Float64frombits(0x000fffffffffffff), -1e-310,
		maxAbs, -maxAbs, maxAbs / 127, -2 * maxAbs / 127, 1e-17, -1e-17,
	}
	if inf {
		edges = append(edges, math.Inf(1), math.Inf(-1))
	}
	v := tensor.NewVector(n)
	for i := range v {
		if i%3 == 0 {
			v[i] = edges[(i/3)%len(edges)]
		} else {
			v[i] = (rng.Float64()*2 - 1) * maxAbs
		}
	}
	return v
}

// TestQuantizeMatchesBranchyBody holds Quantize, over a *rngstate.Source
// (block draws) and a *rand.Rand (any other Uniform, a draw at a time),
// to the branchy oracle on the same stream: ±0, NaN payloads, ±Inf,
// subnormals and |x| = maxAbs, every bit width 2-32 and one past each
// end, and lengths 0 to 600, across the block boundary at 256. All must
// agree on every bit and on the stream position they leave.
func TestQuantizeMatchesBranchyBody(t *testing.T) {
	gen := rand.New(rand.NewSource(9))
	lengths := []int{0, 1, 2, 3, 255, 256, 257, 511, 512, 513, 600}
	for n := 4; n < 600; n += 37 {
		lengths = append(lengths, n)
	}
	for _, bits := range []int{1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33} {
		for _, n := range lengths {
			for _, inf := range []bool{false, true} {
				name := fmt.Sprintf("bits=%d/n=%d/inf=%v", bits, n, inf)
				seed := gen.Int63()
				orig := quantizeCase(n, inf, gen)

				want := orig.Clone()
				wantSrc := rngstate.New(seed)
				quantizeBranchy(want, bits, rand.New(wantSrc))

				block := orig.Clone()
				blockSrc := rngstate.New(seed)
				Quantize(block, bits, blockSrc)

				single := orig.Clone()
				singleSrc := rngstate.New(seed)
				Quantize(single, bits, rand.New(singleSrc))

				for i := range want {
					w := math.Float64bits(want[i])
					if b := math.Float64bits(block[i]); b != w {
						t.Fatalf("%s: block entry %d (x=%v): %#016x, want %#016x", name, i, orig[i], b, w)
					}
					if s := math.Float64bits(single[i]); s != w {
						t.Fatalf("%s: rand.Rand entry %d (x=%v): %#016x, want %#016x", name, i, orig[i], s, w)
					}
				}
				if blockSrc.Pos() != wantSrc.Pos() || singleSrc.Pos() != wantSrc.Pos() {
					t.Fatalf("%s: positions block %d, rand.Rand %d, want %d",
						name, blockSrc.Pos(), singleSrc.Pos(), wantSrc.Pos())
				}
			}
		}
	}
}

// TestQuantizeKeepsNegativeZero pins the case a floor + up step gets
// wrong: a -0 entry lies on the grid, draws no rounding, and stays -0.
func TestQuantizeKeepsNegativeZero(t *testing.T) {
	for _, rng := range []tensor.Uniform{rngstate.New(4), rand.New(rngstate.New(4))} {
		v := tensor.Vector{math.Copysign(0, -1), 1, -0.3}
		Quantize(v, 8, rng)
		if !math.Signbit(v[0]) || v[0] != 0 {
			t.Fatalf("%T: -0 quantized to %v (signbit %v)", rng, v[0], math.Signbit(v[0]))
		}
	}
}

// BenchmarkQuantize times 8-bit quantization of a dist-loopback-sized
// update (12,020 parameters) drawing by block, drawing by block and
// recording the grid, one draw at a time through rand.Rand, and through
// the branchy oracle.
func BenchmarkQuantize(b *testing.B) {
	orig := tensor.NewVector(12020)
	tensor.RandnInto(orig, 0.01, rand.New(rand.NewSource(1)))
	v := orig.Clone()
	src := rngstate.New(2)
	r := rand.New(src)
	codes := make([]int16, len(v))
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"block", func() { Quantize(v, 8, src) }},
		{"grid", func() { QuantizeGrid(v, 8, src, codes) }},
		{"rand", func() { Quantize(v, 8, r) }},
		{"branchy", func() { quantizeBranchy(v, 8, r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, orig)
				bc.run()
			}
		})
	}
}
