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

// MatMulNT computes dst = a·bᵀ one output element at a time, each as a
// sequential dot product — the same accumulation order MatVec uses row by
// row, so a batched forward on ref reduces each output row exactly as the
// per-sample path would.
func (refBackend) MatMulNT(dst, a, b *Matrix) {
	checkMatMulNT(dst, a, b)
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		out := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for c, av := range arow {
				s += av * brow[c]
			}
			out[j] = s
		}
	}
}

// MatMulNN computes dst = a·b with the classic i-k-j axpy ordering (row of
// dst accumulated from scaled rows of b), sequential in k.
func (refBackend) MatMulNN(dst, a, b *Matrix) {
	checkMatMulNN(dst, a, b)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		out := dst.Data[i*n : (i+1)*n]
		for j := range out {
			out[j] = 0
		}
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, av := range arow {
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

// AddMatMulTN performs dst += aᵀ·b as a sequence of rank-1 updates, one per
// shared row k, in row order — mirroring how the per-sample backward path
// accumulates AddOuterScaled updates sample by sample.
func (refBackend) AddMatMulTN(dst, a, b *Matrix) {
	checkAddMatMulTN(dst, a, b)
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
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
