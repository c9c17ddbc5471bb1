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
	"fmt"
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
// over each layer's range of its flat buffers.
type Dense struct {
	W   *tensor.Matrix
	B   tensor.Vector
	Act Activation

	// be is the tensor backend the matrix kernels dispatch through: the
	// owning Model's, which Model.SetBackend swaps.
	be tensor.Backend

	// Scratch buffers reused across Forward/Backward calls. They hold the
	// most recent forward pass, which Backward consumes.
	in     tensor.Vector // last input (aliases caller data)
	preAct tensor.Vector // W·x + b before activation
	out    tensor.Vector // activated output
	gradIn tensor.Vector // dL/dIn returned by Backward, reused per call

	// Gradient accumulators, matched elementwise to W and B.
	GradW *tensor.Matrix
	GradB tensor.Vector
}

// newDense lays an in→out layer over params and grads, each (in+1)·out
// scalars long: weights row-major, then biases. The layer aliases both
// buffers and gets fresh scratch.
func newDense(in, out int, act Activation, be tensor.Backend, params, grads tensor.Vector) *Dense {
	nw := in * out
	return &Dense{
		W:      &tensor.Matrix{Rows: out, Cols: in, Data: params[:nw:nw]},
		B:      params[nw:],
		Act:    act,
		be:     be,
		preAct: tensor.NewVector(out),
		out:    tensor.NewVector(out),
		gradIn: tensor.NewVector(in),
		GradW:  &tensor.Matrix{Rows: out, Cols: in, Data: grads[:nw:nw]},
		GradB:  grads[nw:],
	}
}

// Forward runs the layer on x and returns the activated output. The
// returned slice is owned by the layer and overwritten on the next call.
func (d *Dense) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != d.W.Cols {
		panic(fmt.Sprintf("nn: Dense.Forward input %d, want %d", len(x), d.W.Cols))
	}
	d.in = x
	d.be.MatVec(d.W, d.preAct, x)
	pre, relu := d.preAct, d.Act == ActReLU
	b, out := d.B[:len(pre)], d.out[:len(pre)]
	for i, v := range pre { // bias, pre-activation and activation in one pass
		v += b[i]
		pre[i] = v
		if relu {
			v = reluOf(v)
		}
		out[i] = v
	}
	return d.out
}

// Backward consumes dL/dOut, accumulates dL/dW and dL/dB into the gradient
// buffers, and returns dL/dIn — or nil without computing it when wantIn is
// false. gradOut may be modified in place; the returned slice is owned by
// the layer and overwritten on the next call.
func (d *Dense) Backward(gradOut tensor.Vector, wantIn bool) tensor.Vector {
	if len(gradOut) != d.W.Rows {
		panic(fmt.Sprintf("nn: Dense.Backward grad %d, want %d", len(gradOut), d.W.Rows))
	}
	pre, gb, relu := d.preAct[:len(gradOut)], d.GradB[:len(gradOut)], d.Act == ActReLU
	for i, g := range gradOut { // ReLU mask and bias gradient in one pass
		if relu {
			g = reluGrad(pre[i], g)
			gradOut[i] = g
		}
		gb[i] += g
	}
	d.be.AddOuterScaled(d.GradW, 1, gradOut, d.in)
	if !wantIn {
		return nil
	}
	d.be.MatVecT(d.W, d.gradIn, gradOut)
	return d.gradIn
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
