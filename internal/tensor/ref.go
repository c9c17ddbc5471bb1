package tensor

import "math"

// refBackend is the reference backend. Its contract is a fixed sequence of
// floating-point operations per output element — the sequential order of
// the scalar loops this package started with — while independent outputs
// are free to interleave (the four-row matrix–vector kernels do). Every
// kernel delegates to (or replicates operation-for-operation) the
// package-level functions, so switching code from direct kernel calls to
// Default()-backend calls changes no float anywhere — which is what lets
// the committed golden traces and the P=1≡P=8 determinism tests keep
// passing byte-identically.
//
// refBackend is stateless; the zero value is ready to use.
type refBackend struct{}

func (refBackend) Name() string  { return "ref" }
func (refBackend) Batched() bool { return false }

// fastAlias is ref's kernels registered a second time, under "fast". It is
// a name, not a second implementation: benchmarks/ladder looks "fast" up
// (sync-train trains on it) and registers a traced wrapper named
// "traced-" + Name(), so the alias must report "fast".
type fastAlias struct{ refBackend }

func (fastAlias) Name() string { return "fast" }

func (refBackend) Dot(a, b Vector) float64                       { return a.Dot(b) }
func (refBackend) AddScaled(dst Vector, alpha float64, w Vector) { dst.AddScaled(alpha, w) }
func (refBackend) ScaledDiff(dst Vector, alpha float64, a, b Vector) {
	ScaledDiff(dst, alpha, a, b)
}
func (refBackend) AddWeighted(dst Vector, weights []float64, vecs []Vector) {
	AddWeighted(dst, weights, vecs)
}

func (refBackend) MatVec(m *Matrix, dst, x Vector)  { m.MatVec(dst, x) }
func (refBackend) MatVecT(m *Matrix, dst, x Vector) { m.MatVecT(dst, x) }
func (refBackend) AddOuterScaled(m *Matrix, alpha float64, a, b Vector) {
	m.AddOuterScaled(alpha, a, b)
}

// MatMulNT computes dst = a·bᵀ. Each output element is a sequential dot
// product in MatVec's order, so row i of X·Wᵀ is bit-equal to W·x_i.
func (refBackend) MatMulNT(dst, a, b *Matrix) {
	checkMatMulNT(dst, a, b)
	matMulNT(dst, a, b)
}

// MatMulNN computes dst = a·b in MatVecT's order: row i of dst starts at
// zero and adds a[i,k]·b[k,:] for every nonzero a[i,k], in k order, so it
// is bit-equal to bᵀ·a_i.
func (refBackend) MatMulNN(dst, a, b *Matrix) {
	checkMatMulNN(dst, a, b)
	matMulNN(dst, a, b)
}

// AddMatMulTN performs dst += aᵀ·b: each dst[m,c] adds a[k,m]·b[k,c] for
// every nonzero a[k,m], in k order — the order in which a per-sample
// backward accumulates AddOuterScaled(dst, 1, a_k, b_k) sample by sample.
func (refBackend) AddMatMulTN(dst, a, b *Matrix) {
	checkAddMatMulTN(dst, a, b)
	addMatMulTN(dst, a, b)
}

func (refBackend) Softmax(dst, src Vector) { Softmax(dst, src) }

// SoftmaxXent replicates the historical nn loss path operation-for-
// operation: Softmax into probs, clamp, -log, then grad = probs - onehot
// via copy and a single subtraction. Bit-identical to the pre-backend
// training sequence by construction.
func (refBackend) SoftmaxXent(probs, grad, logits Vector, label int) float64 {
	checkSoftmaxXent(probs, grad, logits, label)
	Softmax(probs, logits)
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	loss := -math.Log(p)
	copy(grad, probs)
	grad[label] -= 1
	return loss
}
