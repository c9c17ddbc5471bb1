// Package backendtests is the conformance suite for tensor.Backend
// implementations. Every registered backend must pass the same table:
// golden kernel values, shape edge cases (empty, 1×N, N×1, non-square),
// documented aliasing contracts, Softmax edge semantics, and
// shape-mismatch panics. Every check is bit-exact: the registry's names
// all resolve to ref's kernels, whose operation order the goldens and the
// P=1≡P=8 determinism tests bind to. The suite also runs every kernel
// twice and requires bit-identical results.
package backendtests

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// same reports whether got is want bit for bit, except that any NaN
// matches any NaN (NaN payloads are not part of the kernels' contract).
func same(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

func checkVec(t *testing.T, name string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !same(got[i], want[i]) {
			t.Errorf("%s: [%d] = %v, want %v bit for bit", name, i, got[i], want[i])
		}
	}
}

func checkScalar(t *testing.T, name string, got, want float64) {
	t.Helper()
	if !same(got, want) {
		t.Errorf("%s: got %v, want %v bit for bit", name, got, want)
	}
}

// Run exercises the full conformance table against b. Call it from a
// per-backend subtest; it fans out into named sub-subtests.
func Run(t *testing.T, b tensor.Backend) {
	t.Run("VectorKernels", func(t *testing.T) { runVectorKernels(t, b) })
	t.Run("MatVecKernels", func(t *testing.T) { runMatVecKernels(t, b) })
	t.Run("MatMulKernels", func(t *testing.T) { runMatMulKernels(t, b) })
	t.Run("Softmax", func(t *testing.T) { runSoftmax(t, b) })
	t.Run("SoftmaxXent", func(t *testing.T) { runSoftmaxXent(t, b) })
	t.Run("Aliasing", func(t *testing.T) { runAliasing(t, b) })
	t.Run("ShapePanics", func(t *testing.T) { runShapePanics(t, b) })
	t.Run("SelfDeterminism", func(t *testing.T) { runSelfDeterminism(t, b) })
}

func runVectorKernels(t *testing.T, b tensor.Backend) {
	t.Run("Dot", func(t *testing.T) {
		cases := []struct {
			a, b tensor.Vector
			want float64
		}{
			{tensor.Vector{}, tensor.Vector{}, 0},
			{tensor.Vector{3}, tensor.Vector{-2}, -6},
			{tensor.Vector{1, 2, 3}, tensor.Vector{4, 5, 6}, 32},
			{tensor.Vector{1, -1, 2, -2, 3, -3, 4}, tensor.Vector{1, 1, 1, 1, 1, 1, 1}, 4},
		}
		for _, tc := range cases {
			checkScalar(t, "Dot", b.Dot(tc.a, tc.b), tc.want)
		}
	})
	t.Run("AddScaled", func(t *testing.T) {
		dst := tensor.Vector{1, 2, 3}
		b.AddScaled(dst, 2, tensor.Vector{10, 20, 30})
		checkVec(t, "AddScaled", dst, tensor.Vector{21, 42, 63})
		empty := tensor.Vector{}
		b.AddScaled(empty, 5, tensor.Vector{}) // must not panic
	})
	t.Run("ScaledDiff", func(t *testing.T) {
		dst := tensor.NewVector(3)
		b.ScaledDiff(dst, 0.5, tensor.Vector{4, 8, 12}, tensor.Vector{2, 4, 6})
		checkVec(t, "ScaledDiff", dst, tensor.Vector{1, 2, 3})
	})
	t.Run("AddWeighted", func(t *testing.T) {
		dst := tensor.Vector{1, 1}
		b.AddWeighted(dst, []float64{2, -1}, []tensor.Vector{{1, 2}, {3, 4}})
		checkVec(t, "AddWeighted", dst, tensor.Vector{0, 1})
		b.AddWeighted(dst, nil, nil) // zero terms: no-op
		checkVec(t, "AddWeighted/empty", dst, tensor.Vector{0, 1})
	})
}

func runMatVecKernels(t *testing.T, b tensor.Backend) {
	// m = [[1 2 3], [4 5 6]]  (2×3, non-square)
	m := tensor.NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})

	t.Run("MatVec", func(t *testing.T) {
		dst := tensor.NewVector(2)
		b.MatVec(m, dst, tensor.Vector{1, 0, -1})
		checkVec(t, "MatVec", dst, tensor.Vector{-2, -2})
	})
	t.Run("MatVecT", func(t *testing.T) {
		dst := tensor.NewVector(3)
		b.MatVecT(m, dst, tensor.Vector{1, -1})
		checkVec(t, "MatVecT", dst, tensor.Vector{-3, -3, -3})
	})
	t.Run("AddOuterScaled", func(t *testing.T) {
		acc := tensor.NewMatrix(2, 3)
		copy(acc.Data, []float64{1, 1, 1, 1, 1, 1})
		b.AddOuterScaled(acc, 2, tensor.Vector{1, -1}, tensor.Vector{1, 2, 3})
		checkVec(t, "AddOuterScaled", acc.Data, tensor.Vector{3, 5, 7, -1, -3, -5})
	})
	t.Run("RowAndColumnVectors", func(t *testing.T) {
		// 1×N and N×1 shapes.
		row := tensor.NewMatrix(1, 4)
		copy(row.Data, []float64{1, 2, 3, 4})
		d1 := tensor.NewVector(1)
		b.MatVec(row, d1, tensor.Vector{1, 1, 1, 1})
		checkVec(t, "MatVec/1xN", d1, tensor.Vector{10})

		col := tensor.NewMatrix(4, 1)
		copy(col.Data, []float64{1, 2, 3, 4})
		d4 := tensor.NewVector(4)
		b.MatVec(col, d4, tensor.Vector{2})
		checkVec(t, "MatVec/Nx1", d4, tensor.Vector{2, 4, 6, 8})

		dT := tensor.NewVector(1)
		b.MatVecT(col, dT, tensor.Vector{1, 1, 1, 1})
		checkVec(t, "MatVecT/Nx1", dT, tensor.Vector{10})
	})
}

func runMatMulKernels(t *testing.T, b tensor.Backend) {
	// a = [[1 2], [3 4], [5 6]] (3×2); w = [[1 0], [0 1], [1 1]] (3×2).
	a := tensor.NewMatrix(3, 2)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	w := tensor.NewMatrix(3, 2)
	copy(w.Data, []float64{1, 0, 0, 1, 1, 1})

	t.Run("MatMulNT", func(t *testing.T) {
		// dst = a·wᵀ: 3×3.
		dst := tensor.NewMatrix(3, 3)
		b.MatMulNT(dst, a, w)
		checkVec(t, "MatMulNT", dst.Data, tensor.Vector{1, 2, 3, 3, 4, 7, 5, 6, 11})
	})
	t.Run("MatMulNN", func(t *testing.T) {
		// dst = a·m where m = [[1 2 0], [0 1 2]] (2×3); dst: 3×3.
		m := tensor.NewMatrix(2, 3)
		copy(m.Data, []float64{1, 2, 0, 0, 1, 2})
		dst := tensor.NewMatrix(3, 3)
		// Pre-fill to verify the kernel overwrites rather than accumulates.
		dst.Data[0] = 99
		b.MatMulNN(dst, a, m)
		checkVec(t, "MatMulNN", dst.Data, tensor.Vector{1, 4, 4, 3, 10, 8, 5, 16, 12})
	})
	t.Run("AddMatMulTN", func(t *testing.T) {
		// dst += aᵀ·w: 2×2 over shared dim 3.
		dst := tensor.NewMatrix(2, 2)
		copy(dst.Data, []float64{1, 0, 0, 1})
		b.AddMatMulTN(dst, a, w)
		// aᵀ·w = [[1+0+5, 0+3+5], [2+0+6, 0+4+6]] = [[6 8],[8 10]]
		checkVec(t, "AddMatMulTN", dst.Data, tensor.Vector{7, 8, 8, 11})
	})
	t.Run("DegenerateShapes", func(t *testing.T) {
		// 1×1 everywhere.
		one := tensor.NewMatrix(1, 1)
		one.Data[0] = 3
		two := tensor.NewMatrix(1, 1)
		two.Data[0] = -2
		dst := tensor.NewMatrix(1, 1)
		b.MatMulNT(dst, one, two)
		checkScalar(t, "MatMulNT/1x1", dst.Data[0], -6)
		b.MatMulNN(dst, one, two)
		checkScalar(t, "MatMulNN/1x1", dst.Data[0], -6)
		b.AddMatMulTN(dst, one, two)
		checkScalar(t, "AddMatMulTN/1x1", dst.Data[0], -12)
	})
}

func runSoftmax(t *testing.T, b tensor.Backend) {
	t.Run("Basic", func(t *testing.T) {
		dst := tensor.NewVector(3)
		b.Softmax(dst, tensor.Vector{0, 0, 0})
		checkVec(t, "Softmax/uniform", dst, tensor.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3})

		// Each within one ulp of the exact e^(i-3)/Σ, pinned to the bits of
		// ref's operation order.
		b.Softmax(dst, tensor.Vector{1, 2, 3})
		checkVec(t, "Softmax/123", dst, tensor.Vector{0.09003057317038045, 0.2447284710547976, 0.6652409557748218})
	})
	t.Run("SingleElement", func(t *testing.T) {
		dst := tensor.NewVector(1)
		b.Softmax(dst, tensor.Vector{-123.5})
		checkVec(t, "Softmax/single", dst, tensor.Vector{1})
	})
	t.Run("Empty", func(t *testing.T) {
		b.Softmax(tensor.Vector{}, tensor.Vector{}) // must not panic
	})
	t.Run("LargeMagnitudes", func(t *testing.T) {
		// Without max-subtraction these overflow exp.
		dst := tensor.NewVector(2)
		b.Softmax(dst, tensor.Vector{1000, 1000})
		checkVec(t, "Softmax/large", dst, tensor.Vector{0.5, 0.5})
	})
	t.Run("AllNegInf", func(t *testing.T) {
		dst := tensor.NewVector(4)
		b.Softmax(dst, tensor.Vector{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)})
		checkVec(t, "Softmax/allneginf", dst, tensor.Vector{0.25, 0.25, 0.25, 0.25})
	})
	t.Run("PartialNegInf", func(t *testing.T) {
		dst := tensor.NewVector(3)
		b.Softmax(dst, tensor.Vector{math.Inf(-1), 0, math.Inf(-1)})
		checkVec(t, "Softmax/partialneginf", dst, tensor.Vector{0, 1, 0})
	})
	t.Run("PosInf", func(t *testing.T) {
		dst := tensor.NewVector(3)
		b.Softmax(dst, tensor.Vector{0, math.Inf(1), 0})
		checkVec(t, "Softmax/posinf", dst, tensor.Vector{0, 1, 0})
		b.Softmax(dst, tensor.Vector{math.Inf(1), 5, math.Inf(1)})
		checkVec(t, "Softmax/posinf-tie", dst, tensor.Vector{0.5, 0, 0.5})
	})
	t.Run("NaNPropagates", func(t *testing.T) {
		dst := tensor.NewVector(3)
		b.Softmax(dst, tensor.Vector{0, math.NaN(), 1})
		checkVec(t, "Softmax/nan", dst, tensor.Vector{math.NaN(), math.NaN(), math.NaN()})
		// NaN mixed with either infinity must still propagate, not hit the
		// uniform or winner-takes-all branches.
		b.Softmax(dst, tensor.Vector{math.Inf(-1), math.NaN(), math.Inf(-1)})
		checkVec(t, "Softmax/nan+neginf", dst, tensor.Vector{math.NaN(), math.NaN(), math.NaN()})
		b.Softmax(dst, tensor.Vector{math.Inf(1), math.NaN(), 0})
		checkVec(t, "Softmax/nan+posinf", dst, tensor.Vector{math.NaN(), math.NaN(), math.NaN()})
	})
}

func runSoftmaxXent(t *testing.T, b tensor.Backend) {
	t.Run("Uniform", func(t *testing.T) {
		n := 4
		probs, grad := tensor.NewVector(n), tensor.NewVector(n)
		loss := b.SoftmaxXent(probs, grad, tensor.Vector{0, 0, 0, 0}, 2)
		checkScalar(t, "SoftmaxXent/loss", loss, math.Log(4))
		checkVec(t, "SoftmaxXent/probs", probs, tensor.Vector{0.25, 0.25, 0.25, 0.25})
		checkVec(t, "SoftmaxXent/grad", grad, tensor.Vector{0.25, 0.25, -0.75, 0.25})
	})
	t.Run("MatchesUnfused", func(t *testing.T) {
		logits := tensor.Vector{0.3, -1.2, 2.5, 0.01, -0.4}
		ref := tensor.Default()
		wantP, wantG := tensor.NewVector(5), tensor.NewVector(5)
		wantLoss := ref.SoftmaxXent(wantP, wantG, logits, 3)

		probs, grad := tensor.NewVector(5), tensor.NewVector(5)
		loss := b.SoftmaxXent(probs, grad, logits.Clone(), 3)
		checkScalar(t, "SoftmaxXent/fused loss", loss, wantLoss)
		checkVec(t, "SoftmaxXent/fused probs", probs, wantP)
		checkVec(t, "SoftmaxXent/fused grad", grad, wantG)
	})
	t.Run("VanishingProbability", func(t *testing.T) {
		// label probability underflows to 0: loss must clamp at -log(1e-12),
		// not return +Inf.
		probs, grad := tensor.NewVector(2), tensor.NewVector(2)
		loss := b.SoftmaxXent(probs, grad, tensor.Vector{0, 10000}, 0)
		checkScalar(t, "SoftmaxXent/clamped loss", loss, -math.Log(1e-12))
		if math.IsInf(loss, 1) {
			t.Errorf("SoftmaxXent: loss overflowed to +Inf")
		}
	})
	t.Run("AllNegInf", func(t *testing.T) {
		// Degenerate logits take the uniform branch; the fused kernel must
		// agree with ref's composition of Softmax + copy + subtract.
		n := 3
		probs, grad := tensor.NewVector(n), tensor.NewVector(n)
		inf := math.Inf(-1)
		loss := b.SoftmaxXent(probs, grad, tensor.Vector{inf, inf, inf}, 1)
		checkScalar(t, "SoftmaxXent/allneginf loss", loss, -math.Log(1.0/3))
		checkVec(t, "SoftmaxXent/allneginf probs", probs, tensor.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3})
		third := 1.0 / 3 // rounded before the subtraction, as the kernel's is
		checkVec(t, "SoftmaxXent/allneginf grad", grad, tensor.Vector{third, third - 1, third})
	})
}

func runAliasing(t *testing.T, b tensor.Backend) {
	t.Run("SoftmaxDstAliasesSrc", func(t *testing.T) {
		v := tensor.Vector{1, 2, 3}
		want := tensor.NewVector(3)
		b.Softmax(want, v.Clone())
		b.Softmax(v, v)
		checkVec(t, "Softmax/dst==src", v, want)
	})
	t.Run("SoftmaxXentProbsAliasLogits", func(t *testing.T) {
		logits := tensor.Vector{0.5, -0.5, 1.5}
		wantP, wantG := tensor.NewVector(3), tensor.NewVector(3)
		wantLoss := b.SoftmaxXent(wantP, wantG, logits.Clone(), 0)

		v := logits.Clone()
		grad := tensor.NewVector(3)
		loss := b.SoftmaxXent(v, grad, v, 0)
		checkScalar(t, "SoftmaxXent/probs==logits loss", loss, wantLoss)
		checkVec(t, "SoftmaxXent/probs==logits probs", v, wantP)
		checkVec(t, "SoftmaxXent/probs==logits grad", grad, wantG)
	})
	t.Run("ScaledDiffDstAliasesA", func(t *testing.T) {
		a := tensor.Vector{4, 8}
		b.ScaledDiff(a, 0.5, a, tensor.Vector{2, 4})
		checkVec(t, "ScaledDiff/dst==a", a, tensor.Vector{1, 2})
	})
	t.Run("ScaledDiffDstAliasesB", func(t *testing.T) {
		bb := tensor.Vector{2, 4}
		b.ScaledDiff(bb, 0.5, tensor.Vector{4, 8}, bb)
		checkVec(t, "ScaledDiff/dst==b", bb, tensor.Vector{1, 2})
	})
}

func runShapePanics(t *testing.T, b tensor.Backend) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: shape mismatch did not panic", name)
			} else if msg, ok := r.(string); ok && !strings.Contains(msg, "tensor:") {
				t.Errorf("%s: panic %q lacks tensor: prefix", name, msg)
			}
		}()
		f()
	}
	m23 := tensor.NewMatrix(2, 3)
	m22 := tensor.NewMatrix(2, 2)
	mustPanic("MatMulNT", func() { b.MatMulNT(m22, m23, m22) })
	mustPanic("MatMulNN", func() { b.MatMulNN(m22, m23, m23) })
	mustPanic("AddMatMulTN", func() { b.AddMatMulTN(m23, m23, m22) })
	mustPanic("SoftmaxXent/len", func() {
		b.SoftmaxXent(tensor.NewVector(2), tensor.NewVector(3), tensor.NewVector(3), 0)
	})
	mustPanic("SoftmaxXent/label", func() {
		b.SoftmaxXent(tensor.NewVector(3), tensor.NewVector(3), tensor.NewVector(3), 3)
	})
}

// runSelfDeterminism runs every kernel twice on identical inputs and
// requires bit-identical output. Six rows and a third of the entries zero
// reach the four-row blocks, their fringes and the zero-skip paths.
func runSelfDeterminism(t *testing.T, b tensor.Backend) {
	const m, k, n = 6, 7, 5
	run := func() tensor.Vector {
		rng := rand.New(rngstate.New(7))
		a, w := randMatrix(rng, m, k), randMatrix(rng, n, k)
		bm, am := randMatrix(rng, k, n), randMatrix(rng, k, m)
		x, y := randVecFrom(rng, k), randVecFrom(rng, m)
		for _, v := range []tensor.Vector{a.Data, w.Data, bm.Data, am.Data, x, y} {
			for i := 0; i < len(v); i += 3 {
				v[i] = 0
			}
		}
		axpy, diff := x.Clone(), tensor.NewVector(k)
		b.AddScaled(axpy, 0.5, x)
		b.ScaledDiff(diff, 0.5, x, axpy)
		b.AddWeighted(diff, []float64{0.25, -1}, []tensor.Vector{x, axpy})
		mv, mvt, outer := tensor.NewVector(m), tensor.NewVector(k), a.Clone()
		b.MatVec(a, mv, x)
		b.MatVecT(a, mvt, y)
		b.AddOuterScaled(outer, 0.3, y, x)
		nt, nn, tn := tensor.NewMatrix(m, n), tensor.NewMatrix(m, n), tensor.NewMatrix(m, n)
		b.MatMulNT(nt, a, w)
		b.MatMulNN(nn, a, bm)
		b.AddMatMulTN(tn, am, bm)
		sm, probs, grad := tensor.NewVector(k), tensor.NewVector(k), tensor.NewVector(k)
		b.Softmax(sm, x)
		out := tensor.Vector{b.Dot(x, axpy), b.SoftmaxXent(probs, grad, x, 2)}
		for _, v := range []tensor.Vector{axpy, diff, mv, mvt, outer.Data, nt.Data, nn.Data, tn.Data, sm, probs, grad} {
			out = append(out, v...)
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("backend %q is nondeterministic at output %d: %v vs %v",
				b.Name(), i, first[i], second[i])
		}
	}
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVecFrom(rng *rand.Rand, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
