package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeBits are the float64 bit patterns a branch-free select can get
// wrong: ±0, ±smallest subnormal, ±1, ±MaxFloat64, ±Inf, and quiet and
// signalling NaNs of both signs with and without payloads.
var edgeBits = []uint64{
	0x0000000000000000, 0x8000000000000000,
	0x0000000000000001, 0x8000000000000001,
	0x3FF0000000000000, 0xBFF0000000000000,
	0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
	0x7FF0000000000000, 0xFFF0000000000000,
	0x7FF8000000000000, 0xFFF8000000000000,
	0x7FF0000000000001, 0xFFF0000000000001,
	0x7FF4000000ABCDEF, 0xFFFC00000000BEEF,
	0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF,
}

// selectInputs is edgeBits followed by 1<<16 seeded random bit patterns.
func selectInputs() []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, 0, len(edgeBits)+1<<16)
	for _, u := range edgeBits {
		out = append(out, math.Float64frombits(u))
	}
	for len(out) < cap(out) {
		out = append(out, math.Float64frombits(rng.Uint64()))
	}
	return out
}

// The branch-free selects must equal the float comparisons they replace
// on every bit pattern, the edge values and random ones alike.
func TestReLUSelectsBitExact(t *testing.T) {
	in := selectInputs()
	for i, v := range in {
		want := 0.0
		if v > 0 {
			want = v
		}
		if got := reluOf(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("reluOf(%#016x) = %#016x, want %#016x",
				math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
		}
		// Every pre against every edge gradient, and against a random one.
		for _, g := range append(in[:len(edgeBits):len(edgeBits)], in[(i*7919)%len(in)]) {
			want := g
			if v <= 0 {
				want = 0
			}
			if got := reluGrad(v, g); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("reluGrad(%#016x, %#016x) = %#016x, want %#016x", math.Float64bits(v),
					math.Float64bits(g), math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// step must leave in params and grads exactly what the clamp pass
// followed by the axpy pass left (refStep), at, above and below ±clip,
// on ±0, ±Inf and NaN, with clipping off and on.
func TestStepMatchesClampThenAxpy(t *testing.T) {
	grads := []float64{6, -6, 5, -5, 4.5, -4.5, math.Nextafter(5, 6), math.Nextafter(-5, -6),
		math.Nextafter(5, 0), 1e300, -1e-300, 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000042)}
	for _, clip := range []float64{0, 5, -1, math.NaN()} {
		gotP, gotG := make([]float64, len(grads)), append([]float64(nil), grads...)
		for i := range gotP {
			gotP[i] = 0.3*float64(i) - 1
		}
		wantP, wantG := append([]float64(nil), gotP...), append([]float64(nil), grads...)
		step(gotP, gotG, 0.125, clip)
		refStep(wantP, wantG, 0.125, clip)
		for i := range grads {
			name := fmt.Sprintf("clip=%v g=%v", clip, grads[i])
			if math.Float64bits(gotG[i]) != math.Float64bits(wantG[i]) {
				t.Errorf("%s: gradient left %v, want %v", name, gotG[i], wantG[i])
			}
			if math.Float64bits(gotP[i]) != math.Float64bits(wantP[i]) {
				t.Errorf("%s: parameter %v, want %v", name, gotP[i], wantP[i])
			}
		}
		if clip == 5 && (gotG[0] != 5 || gotG[1] != -5) {
			t.Errorf("clip=5: gradients 6, -6 left as %v, %v, want 5, -5", gotG[0], gotG[1])
		}
	}
}
