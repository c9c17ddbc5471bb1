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

import (
	"math"

	"floatfl/internal/tensor"
)

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

// reluOf is v > 0 ? v : +0 for every bit pattern, as an integer select:
// u-1 reaches +Inf's bits exactly for +0, the negatives and the NaNs.
// gc emits a conditional move; a float compare would branch on data.
func reluOf(v float64) float64 {
	u := math.Float64bits(v)
	if u-1 >= 0x7FF0000000000000 {
		u = 0
	}
	return math.Float64frombits(u)
}

// reluGrad is pre <= 0 ? +0 : g for every bit pattern, as two integer
// selects: zero when pre is +0 or has the sign bit set, unless it is NaN.
func reluGrad(pre, g float64) float64 {
	u, gb := math.Float64bits(pre), math.Float64bits(g)
	z := gb
	if int64(u) <= 0 {
		z = 0
	}
	if u<<1 > 0xFFE0000000000000 { // NaN: exponent all ones, mantissa not 0
		z = gb
	}
	return math.Float64frombits(z)
}
