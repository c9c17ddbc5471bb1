package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The element-wise oracles spell out amd64's NaN rule instead of leaving
// it to the compiler's choice of operand order: where both operands of an
// add or a multiply are NaN, the result is the first one, quieted.

// quiet sets x's quiet bit, as an amd64 add or multiply does to a NaN
// operand it returns.
func quiet(x float64) float64 { return math.Float64frombits(math.Float64bits(x) | 1<<51) }

// addFirst is a + b with a as the first operand.
func addFirst(a, b float64) float64 {
	switch {
	case a != a:
		return quiet(a)
	case b != b:
		return quiet(b)
	}
	return a + b
}

// mulFirst is a·b with a as the first operand.
func mulFirst(a, b float64) float64 {
	switch {
	case a != a:
		return quiet(a)
	case b != b:
		return quiet(b)
	}
	return a * b
}

func oracleAddBiasAct(pre, act *Matrix, bias Vector, relu bool) {
	for r := 0; r < pre.Rows; r++ {
		for j := 0; j < pre.Cols; j++ {
			v := addFirst(pre.Data[r*pre.Cols+j], bias[j])
			pre.Data[r*pre.Cols+j] = v
			if relu && !(v > 0) {
				v = 0
			}
			act.Data[r*act.Cols+j] = v
		}
	}
}

func oracleMaskAddBiasGrad(g, pre *Matrix, gradB Vector, relu bool) {
	for r := 0; r < g.Rows; r++ {
		for j := 0; j < g.Cols; j++ {
			v := g.Data[r*g.Cols+j]
			if relu && pre.Data[r*pre.Cols+j] <= 0 {
				v = 0
			}
			g.Data[r*g.Cols+j] = v
			gradB[j] = addFirst(v, gradB[j])
		}
	}
}

// oracleClipStep is the clamp pass followed by the axpy pass.
func oracleClipStep(params, grads Vector, lr, clip float64) {
	if clip > 0 {
		for i, g := range grads {
			if g > clip {
				grads[i] = clip
			} else if g < -clip {
				grads[i] = -clip
			}
		}
	}
	for i, g := range grads {
		params[i] = addFirst(mulFirst(-lr, g), params[i])
	}
}

// checkExactBits requires got and want to hold the same bits, NaN payloads
// included. Off amd64 the portable bodies follow that target's NaN rule,
// so there only the NaN-ness of a NaN is compared.
func checkExactBits(t *testing.T, name string, got, want Vector) {
	t.Helper()
	strict := runtime.GOARCH == "amd64"
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && (strict || g == g || w == w) {
			t.Errorf("%s: element %d = %v (%#016x), oracle %v (%#016x)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
			return
		}
	}
}

// checkElementwise runs the three element-wise kernels next to their
// oracles on every body: AddBiasAct on pre and bias, with and without
// ReLU, into a separate act and into pre itself; MaskAddBiasGrad on g,
// pre and gradB, with and without ReLU; and ClipStep on the flat data of
// pre and g, at every given lr and clip.
func checkElementwise(t *testing.T, name string, pre, g *Matrix, bias, gradB Vector, lrs, clips []float64) {
	t.Helper()
	forBodies(t, func(body string) {
		for _, relu := range []bool{false, true} {
			for _, inPlace := range []bool{false, true} {
				name := fmt.Sprintf("%s %s relu=%v in-place=%v", name, body, relu, inPlace)
				gotPre, wantPre := pre.Clone(), pre.Clone()
				gotAct, wantAct := gotPre, wantPre
				if !inPlace {
					gotAct, wantAct = NewMatrix(pre.Rows, pre.Cols), NewMatrix(pre.Rows, pre.Cols)
					gotAct.Data.Fill(99)
				}
				AddBiasAct(gotPre, gotAct, bias, relu)
				oracleAddBiasAct(wantPre, wantAct, bias, relu)
				checkExactBits(t, name+" AddBiasAct pre", gotPre.Data, wantPre.Data)
				checkExactBits(t, name+" AddBiasAct act", gotAct.Data, wantAct.Data)
			}
			gotG, wantG := g.Clone(), g.Clone()
			gotB, wantB := gradB.Clone(), gradB.Clone()
			MaskAddBiasGrad(gotG, pre, gotB, relu)
			oracleMaskAddBiasGrad(wantG, pre, wantB, relu)
			name := fmt.Sprintf("%s %s relu=%v MaskAddBiasGrad", name, body, relu)
			checkExactBits(t, name+" g", gotG.Data, wantG.Data)
			checkExactBits(t, name+" gradB", gotB, wantB)
		}
		for _, lr := range lrs {
			for _, clip := range clips {
				name := fmt.Sprintf("%s %s lr=%v clip=%v ClipStep", name, body, lr, clip)
				gotP, wantP := pre.Data.Clone(), pre.Data.Clone()
				gotG, wantG := g.Data.Clone(), g.Data.Clone()
				ClipStep(gotP, gotG, lr, clip)
				oracleClipStep(wantP, wantG, lr, clip)
				checkExactBits(t, name+" grads", gotG, wantG)
				checkExactBits(t, name+" params", gotP, wantP)
			}
		}
	})
}

// edgeBits are the float64 bit patterns a branch-free select, or a packed
// body's operand order, can get wrong: ±0, ±smallest subnormal, ±1,
// ±MaxFloat64, ±Inf, and quiet and signalling NaNs of both signs with
// distinct payloads.
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
// on every bit pattern, the edge values and random ones alike; and the
// two epilogue kernels built on them must equal their oracles on both
// bodies: on every pair of edge values (pre against bias, gradient against
// gradB, gradient against pre), and at every width 0–9 and some odd ones,
// so each packed body's scalar tail runs.
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

	// Every edge pair: row r holds edge value r, column j meets edge value j.
	e := len(edgeBits)
	edge := func(i int) float64 { return in[i%e] }
	pre, g := NewMatrix(e, e), NewMatrix(e, e)
	bias, gradB := NewVector(e), NewVector(e)
	for r := 0; r < e; r++ {
		for j := 0; j < e; j++ {
			pre.Data[r*e+j], g.Data[r*e+j] = edge(r), edge(j)
		}
		bias[r], gradB[r] = edge(r), edge(r+1)
	}
	checkElementwise(t, "edge pairs", pre, g, bias, gradB, nil, nil)
	// One row of gradients per edge value against every gradB and pre.
	for r := 0; r < e; r++ {
		g1, pre1 := NewMatrix(1, e), NewMatrix(1, e)
		for j := 0; j < e; j++ {
			g1.Data[j], pre1.Data[j] = edge(r), edge(j+r)
		}
		checkElementwise(t, fmt.Sprintf("gradient %#016x", edgeBits[r]), pre1, g1, bias, bias, nil, nil)
	}

	// Every width 0–9 and some odd ones, edge and random values mixed.
	rng := rand.New(rand.NewSource(7))
	val := func() float64 {
		if rng.Intn(3) == 0 {
			return in[rng.Intn(e)]
		}
		return in[rng.Intn(len(in))]
	}
	for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 33} {
		for _, rows := range []int{0, 1, 2, 5} {
			pre, g := NewMatrix(rows, cols), NewMatrix(rows, cols)
			bias, gradB := NewVector(cols), NewVector(cols)
			for _, v := range []Vector{pre.Data, g.Data, bias, gradB} {
				for i := range v {
					v[i] = val()
				}
			}
			checkElementwise(t, fmt.Sprintf("rows=%d cols=%d", rows, cols), pre, g, bias, gradB, nil, nil)
		}
	}
}

// ClipStep must leave in params and grads exactly what the clamp pass
// followed by the axpy pass leaves (oracleClipStep), on both bodies: at,
// above and below ±clip, on ±0, ±Inf and NaN, with clipping off and on,
// for every pairing of those gradients with NaN and numeric parameters,
// at every length 0–9 and some odd ones, and on random values.
func TestStepMatchesClampThenAxpy(t *testing.T) {
	grads := []float64{6, -6, 5, -5, 4.5, -4.5, math.Nextafter(5, 6), math.Nextafter(-5, -6),
		math.Nextafter(5, 0), 1e300, -1e-300, 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xFFF8000000000042),
		math.Float64frombits(0x7FF0000000000123)}
	params := []float64{-1, 0.3, math.Copysign(0, -1), 1e308,
		math.Float64frombits(0x7FF80000000ABCDE), math.Float64frombits(0xFFF4000000000777)}
	clips := []float64{0, 5, -1, math.NaN()}
	// 0.1·g rounds, so a fused multiply-add leaves other bits.
	lrs := []float64{0.125, 0.1, math.Float64frombits(0x7FF8000000000099)}

	n := len(grads) * len(params)
	p, g := NewMatrix(1, n), NewMatrix(1, n)
	for i := range n {
		g.Data[i], p.Data[i] = grads[i/len(params)], params[i%len(params)]
	}
	checkElementwise(t, "every pair", p, g, NewVector(n), NewVector(n), lrs, clips)
	for _, length := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 33} {
		p, g := NewMatrix(1, length), NewMatrix(1, length)
		for i := range length {
			g.Data[i], p.Data[i] = grads[(i*5+length)%len(grads)], params[(i+length)%len(params)]
		}
		checkElementwise(t, fmt.Sprintf("length %d", length), p, g, NewVector(length), NewVector(length), lrs, clips)
	}

	rng := rand.New(rand.NewSource(3))
	p, g = NewMatrix(1, 67), NewMatrix(1, 67)
	fillKernelInput(rng, p.Data, 0, false)
	fillKernelInput(rng, g.Data, 0.1, false)
	checkElementwise(t, "random", p, g, NewVector(67), NewVector(67), lrs, clips)

	forBodies(t, func(body string) {
		got := Vector{6, -6, 1, -1, 6, -6, 5, -5, 7}
		ClipStep(NewVector(len(got)), got, 1, 5)
		for i, want := range []float64{5, -5, 1, -1, 5, -5, 5, -5, 5} {
			if got[i] != want {
				t.Errorf("%s: clip=5 left gradient %d as %v, want %v", body, i, got[i], want)
			}
		}
	})
}

// BenchmarkElementwise runs one sync-train-shaped minibatch's element-wise
// passes — 20 samples through a 32→64→64→12 network's two epilogues per
// layer, then the step over all 7052 parameters — on each body.
func BenchmarkElementwise(b *testing.B) {
	const batch = 20
	widths := []int{64, 64, 12}
	rng := rand.New(rand.NewSource(1))
	pre, act, g := make([]*Matrix, len(widths)), make([]*Matrix, len(widths)), make([]*Matrix, len(widths))
	bias, gradB := make([]Vector, len(widths)), make([]Vector, len(widths))
	for l, w := range widths {
		pre[l], act[l], g[l] = NewMatrix(batch, w), NewMatrix(batch, w), NewMatrix(batch, w)
		bias[l], gradB[l] = NewVector(w), NewVector(w)
		fillKernelInput(rng, pre[l].Data, 0, false)
		fillKernelInput(rng, g[l].Data, 0.5, false)
		fillKernelInput(rng, bias[l], 0, false)
	}
	params, grads := NewVector(7052), NewVector(7052)
	fillKernelInput(rng, params, 0, false)
	forBodies(b, func(body string) {
		b.Run(body, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for l := range widths {
					relu := l < len(widths)-1
					AddBiasAct(pre[l], act[l], bias[l], relu)
					MaskAddBiasGrad(g[l], pre[l], gradB[l], relu)
				}
				ClipStep(params, grads, 1e-3, 5)
			}
		})
	})
}
