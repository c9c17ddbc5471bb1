// Package nn is a from-scratch neural-network substrate: dense layers,
// softmax cross-entropy, SGD training, and a model registry whose named
// architectures mirror the relative sizes of the models used in the FLOAT
// paper (ResNet-18/34/50, ShuffleNet).
//
// Two scales coexist deliberately. The *trained* network is small (so the
// CPU-only simulator converges in seconds and accuracy dynamics are real),
// while each architecture also carries reference parameter/FLOP counts at
// the true model scale; the device cost model consumes the reference
// numbers so simulated training and communication times reflect real
// workloads.
//
// Memory layout: a Model is a pipeline of Dense layers that keeps every
// trainable scalar in one contiguous flat parameter vector with a parallel
// flat gradient vector; each layer's weights and biases are views into
// those buffers (see DESIGN.md "Flat parameter memory layout").
package nn

import "floatfl/internal/tensor"

// Activation selects the nonlinearity applied by a Dense layer.
type Activation int

const (
	// ActNone applies no nonlinearity (used by the output layer).
	ActNone Activation = iota
	// ActReLU applies max(0, x) elementwise.
	ActReLU
)

// Dense is a fully connected layer: y = act(W·x + b). A Model lays one
// over each layer's range of its flat buffers; the model runs it a
// minibatch at a time (see batch.go).
type Dense struct {
	W   *tensor.Matrix
	B   tensor.Vector
	Act Activation

	// Gradient accumulators, matched elementwise to W and B.
	GradW *tensor.Matrix
	GradB tensor.Vector
}

// newDense lays an in→out layer over params and grads, each (in+1)·out
// scalars long: weights row-major, then biases. The layer aliases both
// buffers.
func newDense(in, out int, act Activation, params, grads tensor.Vector) *Dense {
	nw := in * out
	return &Dense{
		W:     &tensor.Matrix{Rows: out, Cols: in, Data: params[:nw:nw]},
		B:     params[nw:],
		Act:   act,
		GradW: &tensor.Matrix{Rows: out, Cols: in, Data: grads[:nw:nw]},
		GradB: grads[nw:],
	}
}
