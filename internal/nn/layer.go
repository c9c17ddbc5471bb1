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
// those buffers (see DESIGN.md "Flat parameter memory layout"). A Dense
// built by NewDense (vfl's standalone towers) owns its storage.
package nn

import (
	"fmt"
	"math/rand"

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
// over each layer's range of its flat buffers; NewDense builds a
// standalone layer that owns its storage.
type Dense struct {
	W   *tensor.Matrix
	B   tensor.Vector
	Act Activation

	// be is the tensor backend the matrix kernels dispatch through;
	// constructors set it to tensor.Default() (ref), Model.SetBackend
	// swaps it.
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

// NewDense constructs a standalone Dense layer with Xavier-initialized
// weights.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	n := (in + 1) * out
	d := newDense(in, out, act, tensor.Default(), tensor.NewVector(n), tensor.NewVector(n))
	tensor.XavierInto(d.W.Data, in, out, rng)
	return d
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

// InDim returns the layer's input dimensionality.
func (d *Dense) InDim() int { return d.W.Cols }

// OutDim returns the layer's output dimensionality.
func (d *Dense) OutDim() int { return d.W.Rows }

// Forward runs the layer on x and returns the activated output. The
// returned slice is owned by the layer and overwritten on the next call.
func (d *Dense) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != d.W.Cols {
		panic(fmt.Sprintf("nn: Dense.Forward input %d, want %d", len(x), d.W.Cols))
	}
	d.in = x
	d.be.MatVec(d.W, d.preAct, x)
	d.preAct.AddScaled(1, d.B)
	switch d.Act {
	case ActReLU:
		for i, v := range d.preAct {
			if v > 0 {
				d.out[i] = v
			} else {
				d.out[i] = 0
			}
		}
	default:
		copy(d.out, d.preAct)
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
	if d.Act == ActReLU {
		for i := range gradOut {
			if d.preAct[i] <= 0 {
				gradOut[i] = 0
			}
		}
	}
	d.GradB.AddScaled(1, gradOut)
	d.be.AddOuterScaled(d.GradW, 1, gradOut, d.in)
	if !wantIn {
		return nil
	}
	d.be.MatVecT(d.W, d.gradIn, gradOut)
	return d.gradIn
}

// ZeroGrad clears the accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.GradW.Data.Zero()
	d.GradB.Zero()
}

// ApplySGD performs W -= lr*GradW, B -= lr*GradB with gradient clipping at
// clip (no clipping if clip <= 0).
func (d *Dense) ApplySGD(lr, clip float64) {
	if clip > 0 {
		d.GradW.Data.Clamp(clip)
		d.GradB.Clamp(clip)
	}
	d.W.Data.AddScaled(-lr, d.GradW.Data)
	d.B.AddScaled(-lr, d.GradB)
}
