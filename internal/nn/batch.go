package nn

import (
	"fmt"
	"sync"

	"floatfl/internal/tensor"
)

// A model runs a minibatch as matrices, one row per sample. Layer l's
// forward pass is H = X·Wᵀ (Backend.MatMulNT), then the bias and the
// activation in one pass (tensor.AddBiasAct); its backward pass masks G by
// the ReLU and accumulates GradB in one pass (tensor.MaskAddBiasGrad),
// then GradW += Gᵀ·X (AddMatMulTN) and, above the lowest trained layer,
// the layer below's G = G·W (MatMulNN).
// Each GEMM gives every output element the operations, in the same order,
// of the matrix–vector kernel a per-sample loop would run (MatVec,
// AddOuterScaled, MatVecT), the weights do not change within a minibatch,
// and every GradW and GradB element accumulates its samples in sample
// order. So a minibatch leaves exactly the bits the sample-by-sample loop
// left, which FuzzTrainBitExact holds it to.

// batch is the scratch a Train or Evaluate call runs its minibatches in:
// the inputs and, per layer, the pre-activations, the activations and,
// when training, dL/dpre — each rows × width, laid over one flat buffer.
// The activations share the pre-activations' rows on the output layer,
// which applies no activation, and when evaluating, which never reads a
// pre-activation again.
type batch struct {
	buf   tensor.Vector
	x     tensor.Matrix
	pre   []tensor.Matrix
	act   []tensor.Matrix
	grad  []tensor.Matrix
	probs tensor.Vector
}

// batches is the free list of batch scratch. A Train or Evaluate call
// takes one and returns it before it returns, so the list holds at most
// one per call that ever ran concurrently — on a server with a model per
// client, far fewer than one per model, which is what scratch kept on the
// model would cost. It is not a sync.Pool: the race detector drops pooled
// items at random, and a dropped batch is rebuilt by allocating.
var batches struct {
	mu   sync.Mutex
	free []*batch
}

// takeBatch returns a batch from the free list, or a new empty one.
func takeBatch() *batch {
	batches.mu.Lock()
	defer batches.mu.Unlock()
	n := len(batches.free)
	if n == 0 {
		return new(batch)
	}
	b := batches.free[n-1]
	batches.free[n-1] = nil
	batches.free = batches.free[:n-1]
	return b
}

// release returns b to the free list; the caller must not use it again.
func (b *batch) release() {
	batches.mu.Lock()
	batches.free = append(batches.free, b)
	batches.mu.Unlock()
}

// shape lays b out for a minibatch of rows samples through m, with
// gradient rows when train is set. It allocates only when b has never
// held that many scalars, or that many layers.
func (b *batch) shape(m *Model, rows int, train bool) {
	n := len(m.Layers)
	if cap(b.pre) < n {
		b.pre, b.act, b.grad = make([]tensor.Matrix, n), make([]tensor.Matrix, n), make([]tensor.Matrix, n)
	}
	b.pre, b.act, b.grad = b.pre[:n], b.act[:n], b.grad[:n]
	need := rows*m.nIn + m.nOut
	for _, d := range m.Layers {
		per := 1
		if train {
			per = 2
			if d.Act == ActReLU {
				per = 3
			}
		}
		need += per * rows * d.W.Rows
	}
	if cap(b.buf) < need {
		b.buf = tensor.NewVector(need)
	}
	free := b.buf[:need]
	carve := func(cols int) tensor.Matrix {
		v := free[: rows*cols : rows*cols]
		free = free[rows*cols:]
		return tensor.Matrix{Rows: rows, Cols: cols, Data: v}
	}
	b.x = carve(m.nIn)
	for l, d := range m.Layers {
		b.pre[l] = carve(d.W.Rows)
		b.act[l] = b.pre[l]
		if train && d.Act == ActReLU {
			b.act[l] = carve(d.W.Rows)
		}
		b.grad[l] = tensor.Matrix{}
		if train {
			b.grad[l] = carve(d.W.Rows)
		}
	}
	b.probs = free[:m.nOut]
}

// load copies sample features x into input row r.
func (b *batch) load(r int, x tensor.Vector) {
	if len(x) != b.x.Cols {
		panic(fmt.Sprintf("nn: sample has %d features, model wants %d", len(x), b.x.Cols))
	}
	copy(b.x.Data[r*b.x.Cols:], x)
}

// row returns row r of x.
func row(x *tensor.Matrix, r int) tensor.Vector { return x.Data[r*x.Cols:][:x.Cols] }

// forward runs the input rows of b through every layer, leaving each
// layer's pre-activations and activations in b, and returns the logits.
func (m *Model) forward(b *batch) *tensor.Matrix {
	in := &b.x
	for l, d := range m.Layers {
		pre, out := &b.pre[l], &b.act[l]
		m.backend.MatMulNT(pre, in, d.W)
		tensor.AddBiasAct(pre, out, d.B[:pre.Cols], d.Act == ActReLU)
		in = out
	}
	return in
}

// backward takes dL/dlogits in the output layer's gradient rows and
// backpropagates it down to layer floor (see trainFloor), adding each
// trained layer's gradients into GradW and GradB. The floor layer computes
// no input gradient, and the layers below it get no backward pass.
func (m *Model) backward(b *batch, floor int) {
	for l := len(m.Layers) - 1; l >= floor; l-- {
		d, g := m.Layers[l], &b.grad[l]
		tensor.MaskAddBiasGrad(g, &b.pre[l], d.GradB[:g.Cols], d.Act == ActReLU)
		in := &b.x
		if l > 0 {
			in = &b.act[l-1]
		}
		m.backend.AddMatMulTN(d.GradW, g, in)
		if l > floor {
			m.backend.MatMulNN(&b.grad[l-1], g, d.W)
		}
	}
}

// minibatch runs samples[idx[0]], samples[idx[1]], … forward and backward
// down to layer floor, adding their gradients into the model's gradient
// buffer, and returns loss plus each sample's cross-entropy, added in
// sample order.
func (m *Model) minibatch(b *batch, samples []Sample, idx []int, floor int, loss float64) float64 {
	b.shape(m, len(idx), true)
	for r, i := range idx {
		b.load(r, samples[i].X)
	}
	logits, grad := m.forward(b), &b.grad[len(m.Layers)-1]
	for r, i := range idx {
		// Fused softmax + cross-entropy + dL/dlogits = probs - onehot(label).
		loss += m.backend.SoftmaxXent(b.probs, row(grad, r), row(logits, r), samples[i].Label)
	}
	m.backward(b, floor)
	return loss
}
