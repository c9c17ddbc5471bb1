// Package tensor provides the dense numerical kernels used by the
// neural-network substrate: vectors, row-major matrices, and the handful of
// BLAS-like operations (axpy, dot, matrix–vector products, softmax) that
// model training needs. Everything is float64 and allocation-conscious: the
// hot paths (MatVec, AddScaled) write into caller-provided destinations so
// the training loop can reuse buffers across steps. Training reaches the
// kernels through the Backend seam, whose one implementation, ref, fixes
// every output's sequence of operations, so every kernel is bit-exact.
// Every product that feeds an add is written float64(x*y), which rounds it
// on its own: the Go spec otherwise lets a target with fused multiply-adds
// (arm64, ppc64le, s390x, riscv64, loong64) round x*y + z once, and leave
// other bits than amd64 does.
package tensor

import (
	"fmt"
	"math"

	"floatfl/internal/detmath"
)

// Vector is a dense 1-D array of float64.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to zero.
func (v Vector) Zero() { clear(v) }

// Dot returns the inner product of v and w. It panics if the lengths differ,
// because a length mismatch is always a programming error in this codebase.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// AddScaled performs v += alpha*w (the classic axpy).
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += float64(alpha * w[i])
	}
}

// Scale performs v *= alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// AddScaledDiff performs v += alpha*(a - b), the fused kernel behind the
// FedProx proximal gradient (grad += mu·(w - anchor)) on flat buffers.
func (v Vector) AddScaledDiff(alpha float64, a, b Vector) {
	if len(v) != len(a) || len(v) != len(b) {
		panic(fmt.Sprintf("tensor: AddScaledDiff length mismatch %d vs %d vs %d",
			len(v), len(a), len(b)))
	}
	for i := range v {
		v[i] += float64(alpha * (a[i] - b[i]))
	}
}

// ScaledDiff writes dst = alpha*(a - b) without allocating — the one-pass
// delta kernel (delta = after - before) of the FL hot path. dst may alias
// a or b.
func ScaledDiff(dst Vector, alpha float64, a, b Vector) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic(fmt.Sprintf("tensor: ScaledDiff length mismatch %d vs %d vs %d",
			len(dst), len(a), len(b)))
	}
	for i := range dst {
		dst[i] = alpha * (a[i] - b[i])
	}
}

// AddWeighted performs dst += Σ_k weights[k]·vecs[k], accumulating directly
// into dst (typically a model's flat parameter buffer). The terms are
// applied in slice order as a sequence of axpys, so the floating-point
// result is independent of everything but the given ordering.
func AddWeighted(dst Vector, weights []float64, vecs []Vector) {
	if len(weights) != len(vecs) {
		panic(fmt.Sprintf("tensor: AddWeighted %d weights for %d vectors",
			len(weights), len(vecs)))
	}
	for k, v := range vecs {
		dst.AddScaled(weights[k], v)
	}
}

// MaxAbs returns the largest absolute element of v, or 0 for an empty vector.
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Argmax returns the index of the largest element. Ties resolve to the
// lowest index. It returns -1 for an empty vector.
func (v Vector) Argmax() int {
	if len(v) == 0 {
		return -1
	}
	best, bestIdx := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bestIdx = v[i], i
		}
	}
	return bestIdx
}

// Softmax writes the softmax of src into dst (which may alias src).
// It uses the max-subtraction trick for numerical stability, and
// detmath.Exp rather than math.Exp, whose amd64 assembly rounds differently
// on CPUs with and without FMA.
//
// Edge-case semantics, shared by every backend and pinned by regression
// tests:
//
//   - empty src: no-op.
//   - single element: dst[0] = 1 exactly, whatever the input (including
//     -Inf: a one-way choice has probability one).
//   - a row whose maximum is -Inf (every element -Inf): the uniform
//     distribution 1/n — the limit of softmax as all logits sink together,
//     and the only answer that keeps a downstream cross-entropy finite.
//   - any NaN input: every output is NaN (deliberate propagation; a NaN
//     logit is a training bug the aggregator's finite-ness guard must see,
//     not a value to launder into a probability).
//   - a row containing +Inf: the +Inf entries split all the mass evenly
//     and every finite entry gets 0 — the limit distribution, instead of
//     the exp(Inf-Inf)=NaN the naive loop would produce.
func Softmax(dst, src Vector) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Softmax length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	max := src[0]
	for _, x := range src[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		// All-(-Inf) row: exp(-Inf - -Inf) would be NaN. Off the hot path
		// (the max scan resolved to -Inf), so scan for NaN to preserve
		// propagation, then fall back to uniform.
		for _, x := range src {
			if math.IsNaN(x) {
				dst.Fill(math.NaN())
				return
			}
		}
		dst.Fill(1 / float64(len(dst)))
		return
	}
	if math.IsInf(max, 1) {
		// +Inf logit(s): exp(+Inf - +Inf) would be NaN. Also off the hot
		// path; NaN still poisons the row, then the +Inf entries split the
		// mass (ties included) and finite entries get zero.
		winners := 0
		for _, x := range src {
			if math.IsNaN(x) {
				dst.Fill(math.NaN())
				return
			}
			if math.IsInf(x, 1) {
				winners++
			}
		}
		p := 1 / float64(winners)
		for i, x := range src {
			if math.IsInf(x, 1) {
				dst[i] = p
			} else {
				dst[i] = 0
			}
		}
		return
	}
	var sum float64
	for i, x := range src {
		e := detmath.Exp(x - max)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       Vector // len == Rows*Cols
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// The matrix–vector kernels below interleave four independent rows per
// pass, so no multiply-add waits on the previous one and each x or b
// element is loaded once per four rows; every output element keeps the
// sequential scalar loop's operations, so results match it bit for bit.

// MatVec computes dst = m · x where x has length m.Cols and dst has length
// m.Rows. dst must not alias x. Each dst[r] is the sequential sum
// ((0 + m[r,0]·x[0]) + m[r,1]·x[1]) + …; four rows run side by side.
func (m *Matrix) MatVec(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	n, r := m.Cols, 0
	for ; r+4 <= m.Rows; r += 4 {
		r0, r1, r2, r3 := m.Data[r*n:][:n], m.Data[(r+1)*n:][:n], m.Data[(r+2)*n:][:n], m.Data[(r+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for c, xc := range x[:n] {
			s0 += float64(r0[c] * xc)
			s1 += float64(r1[c] * xc)
			s2 += float64(r2[c] * xc)
			s3 += float64(r3[c] * xc)
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		var s float64
		for c, w := range m.Data[r*n:][:n] {
			s += float64(w * x[c])
		}
		dst[r] = s
	}
}

// MatVecT computes dst = mᵀ · x where x has length m.Rows and dst has length
// m.Cols. dst must not alias x. Each dst[c] starts at zero and adds
// m[r,c]·x[r] for every row with x[r] != 0, in row order (addScaledRows).
func (m *Matrix) MatVecT(dst, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	dst.Zero()
	addScaledRows(dst, x, 1, m.Rows, m.Data)
}

// addScaledRows adds x[r·xs]·b[r,:] to dst, where b holds rows rows of
// len(dst) columns, for every r with x[r·xs] != 0, in row order: each
// dst[c] gets one multiply and one add per such row. The rows are gathered
// and applied four per pass over dst. MatVecT runs it with xs = 1, and
// the portable GEMMs over a row (MatMulNN) or a column (AddMatMulTN) of a.
func addScaledRows(dst, x Vector, xs, rows int, b Vector) {
	n := len(dst)
	var idx [4]int
	k := 0
	for r := 0; r < rows; r++ {
		if x[r*xs] == 0 {
			continue
		}
		idx[k] = r
		if k++; k < 4 {
			continue
		}
		k = 0
		x0, x1, x2, x3 := x[idx[0]*xs], x[idx[1]*xs], x[idx[2]*xs], x[idx[3]*xs]
		r0, r1, r2, r3 := b[idx[0]*n:][:n], b[idx[1]*n:][:n], b[idx[2]*n:][:n], b[idx[3]*n:][:n]
		for c, d := range dst {
			d += float64(r0[c] * x0)
			d += float64(r1[c] * x1)
			d += float64(r2[c] * x2)
			d += float64(r3[c] * x3)
			dst[c] = d
		}
	}
	for _, r := range idx[:k] {
		xr := x[r*xs]
		for c, w := range b[r*n:][:n] {
			dst[c] += float64(w * xr)
		}
	}
}

// AddOuterScaled performs m += alpha * (a ⊗ b), the rank-1 update used by
// linear-layer backprop: a has length m.Rows, b has length m.Cols. Each
// m[r,c] gets the one add m[r,c] + (alpha·a[r])·b[c], and rows whose scale
// is zero are left untouched; the other rows are updated four per pass
// over b.
func (m *Matrix) AddOuterScaled(alpha float64, a, b Vector) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuterScaled shape mismatch m=%dx%d a=%d b=%d",
			m.Rows, m.Cols, len(a), len(b)))
	}
	n := m.Cols
	var rows [4]int
	var scale [4]float64
	k := 0
	for r := range a {
		ar := alpha * a[r]
		if ar == 0 {
			continue
		}
		rows[k], scale[k] = r, ar
		if k++; k < 4 {
			continue
		}
		k = 0
		a0, a1, a2, a3 := scale[0], scale[1], scale[2], scale[3]
		r0, r1, r2, r3 := m.Data[rows[0]*n:][:n], m.Data[rows[1]*n:][:n], m.Data[rows[2]*n:][:n], m.Data[rows[3]*n:][:n]
		for c, bc := range b[:n] {
			r0[c] += float64(a0 * bc)
			r1[c] += float64(a1 * bc)
			r2[c] += float64(a2 * bc)
			r3[c] += float64(a3 * bc)
		}
	}
	for i, r := range rows[:k] {
		ar, row := scale[i], m.Data[r*n:][:n]
		for c, bc := range b[:n] {
			row[c] += float64(ar * bc)
		}
	}
}
