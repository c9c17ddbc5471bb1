package tensor

import "math"

// fastBackend is the optimized backend: a blocked/tiled GEMM for the
// batched training path, a 4-way-unrolled Dot, and a fused
// softmax+cross-entropy. It is deterministic (pure functions of its
// inputs, no randomness), but its reduction trees differ from ref's
// sequential loops, so those kernels match ref only to rounding — the
// conformance suite bounds the divergence in ulps, and the fl parity test
// bounds its end-to-end effect on accuracy. MatVec, MatVecT and
// AddOuterScaled are shared with ref and bit-identical to it.
//
// The kernels stay portable Go: the unroll-by-4 independent accumulators
// break the sequential FP dependency chain (the scalar loop's latency
// bound), and the 2×2 register tiles in the GEMMs reuse each loaded
// element twice, which is where the matmul speedup comes from.
//
// fastBackend is stateless; the zero value is ready to use.
type fastBackend struct{}

func (fastBackend) Name() string  { return "fast" }
func (fastBackend) Batched() bool { return true }

// dot4 is the 4-way unrolled inner product behind Dot and MatMulNT's
// fringe: four independent accumulators, combined once at the end.
func dot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

func (fastBackend) Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		a.Dot(b) // delegate for the canonical panic message
	}
	return dot4(a, b)
}

// AddScaled, ScaledDiff, and AddWeighted are single-pass streaming kernels
// with no reduction: the scalar loops are already memory-bound, so fast
// reuses ref's exact loops (and ordering).
func (fastBackend) AddScaled(dst Vector, alpha float64, w Vector) { dst.AddScaled(alpha, w) }
func (fastBackend) ScaledDiff(dst Vector, alpha float64, a, b Vector) {
	ScaledDiff(dst, alpha, a, b)
}
func (fastBackend) AddWeighted(dst Vector, weights []float64, vecs []Vector) {
	AddWeighted(dst, weights, vecs)
}

// The matrix–vector kernels are the shared four-row ones in tensor.go:
// they are faster than a dot4 per row or a two-row fusion at every ladder
// shape, and sharing them keeps fast bit-equal to ref here.
func (fastBackend) MatVec(m *Matrix, dst, x Vector)  { m.MatVec(dst, x) }
func (fastBackend) MatVecT(m *Matrix, dst, x Vector) { m.MatVecT(dst, x) }
func (fastBackend) AddOuterScaled(m *Matrix, alpha float64, a, b Vector) {
	m.AddOuterScaled(alpha, a, b)
}

// MatMulNT computes dst = a·bᵀ with 2×2 register tiles: two rows of a
// against two rows of b yield four accumulators per k-pass, so every
// loaded element feeds two multiplies. Both operands stream row-major —
// the cache-friendliest GEMM shape — and the fringe falls back to the
// unrolled dot.
func (fastBackend) MatMulNT(dst, a, b *Matrix) {
	checkMatMulNT(dst, a, b)
	k, n := a.Cols, dst.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		out0 := dst.Data[i*n : (i+1)*n]
		out1 := dst.Data[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+2 <= b.Rows; j += 2 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			var c00, c01, c10, c11 float64
			for c := 0; c < k; c++ {
				av0, av1 := a0[c], a1[c]
				bv0, bv1 := b0[c], b1[c]
				c00 += av0 * bv0
				c01 += av0 * bv1
				c10 += av1 * bv0
				c11 += av1 * bv1
			}
			out0[j], out0[j+1] = c00, c01
			out1[j], out1[j+1] = c10, c11
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*k : (j+1)*k]
			out0[j] = dot4(a0, brow)
			out1[j] = dot4(a1, brow)
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		out := dst.Data[i*n : (i+1)*n]
		for j := 0; j < b.Rows; j++ {
			out[j] = dot4(arow, b.Data[j*k:(j+1)*k])
		}
	}
}

// MatMulNN computes dst = a·b in i-k-j axpy order with two k-steps fused
// per pass over the output row, halving the dst traffic.
func (fastBackend) MatMulNN(dst, a, b *Matrix) {
	checkMatMulNN(dst, a, b)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		out := dst.Data[i*n : (i+1)*n]
		for j := range out {
			out[j] = 0
		}
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		k := 0
		for ; k+2 <= len(arow); k += 2 {
			av0, av1 := arow[k], arow[k+1]
			if av0 == 0 && av1 == 0 {
				continue
			}
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			for j := range out {
				out[j] += av0*b0[j] + av1*b1[j]
			}
		}
		for ; k < len(arow); k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				out[j] += av * bv
			}
		}
	}
}

// AddMatMulTN performs dst += aᵀ·b, fusing two shared rows per rank-1
// update so each dst row is revisited half as often.
func (fastBackend) AddMatMulTN(dst, a, b *Matrix) {
	checkAddMatMulTN(dst, a, b)
	n := b.Cols
	k := 0
	for ; k+2 <= a.Rows; k += 2 {
		ar0 := a.Data[k*a.Cols : (k+1)*a.Cols]
		ar1 := a.Data[(k+1)*a.Cols : (k+2)*a.Cols]
		br0 := b.Data[k*n : (k+1)*n]
		br1 := b.Data[(k+1)*n : (k+2)*n]
		for m := 0; m < dst.Rows; m++ {
			av0, av1 := ar0[m], ar1[m]
			if av0 == 0 && av1 == 0 {
				continue
			}
			out := dst.Data[m*n : (m+1)*n]
			for j := range out {
				out[j] += av0*br0[j] + av1*br1[j]
			}
		}
	}
	for ; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for m, av := range arow {
			if av == 0 {
				continue
			}
			out := dst.Data[m*n : (m+1)*n]
			for j, bv := range brow {
				out[j] += av * bv
			}
		}
	}
}

// Softmax delegates to the reference kernel: math.Exp dominates its cost,
// so there is nothing to block or unroll, and sharing the loop keeps the
// edge-case semantics (all -Inf, NaN) identical across backends for free.
func (fastBackend) Softmax(dst, src Vector) { Softmax(dst, src) }

// SoftmaxXent is the fused kernel: one exp pass fills probs, and a single
// normalization pass writes probs and grad together — no intermediate copy
// pass like the unfused ref sequence. Degenerate rows (max of -Inf or NaN)
// delegate to ref so the documented edge semantics stay shared.
func (fastBackend) SoftmaxXent(probs, grad, logits Vector, label int) float64 {
	checkSoftmaxXent(probs, grad, logits, label)
	max := logits[0]
	for _, x := range logits[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, 0) || math.IsNaN(max) {
		// Degenerate rows (all -Inf, any +Inf, NaN max) take ref's unfused
		// path so the documented edge semantics stay shared.
		return refBackend{}.SoftmaxXent(probs, grad, logits, label)
	}
	var sum float64
	for i, x := range logits {
		e := math.Exp(x - max)
		probs[i] = e
		sum += e
	}
	inv := 1 / sum
	for i, e := range probs {
		p := e * inv
		probs[i] = p
		grad[i] = p
	}
	grad[label] -= 1
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}
