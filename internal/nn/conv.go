package nn

import (
	"fmt"
	"math/rand"

	"floatfl/internal/tensor"
)

// Layer is the interface every trainable layer implements; Model composes
// a pipeline of Layers. Dense and Conv1D are the built-in implementations.
//
// Storage contract: a layer created by its constructor owns its parameter
// and gradient storage. A Model rebinds every layer into its contiguous
// flat buffers via Bind, after which Params/Grads return views that alias
// the model's flat vectors.
type Layer interface {
	// Forward runs the layer; the returned slice is owned by the layer and
	// overwritten on the next call.
	Forward(x tensor.Vector) tensor.Vector
	// Backward consumes dL/dOut (which it may modify), accumulates
	// parameter gradients, and returns dL/dIn. The returned slice is owned
	// by the layer and overwritten on the next call. With wantIn false it
	// computes no dL/dIn and returns nil: Model.Train asks that of the
	// lowest layer it trains, whose input gradient nothing reads, and
	// calls no layer below it. The parameter gradients are the same either
	// way, bit for bit.
	Backward(grad tensor.Vector, wantIn bool) tensor.Vector
	// NumParams counts trainable scalars.
	NumParams() int
	// Params returns views of the parameter storage, in a stable order
	// matched 1:1 by Grads.
	Params() []tensor.Vector
	// Grads returns views of the gradient accumulators.
	Grads() []tensor.Vector
	// OutDim is the output vector length.
	OutDim() int
	// Clone returns an independent copy of the layer — same shape and
	// parameter values, freshly allocated storage and scratch buffers.
	// Model.Clone rebinds the copy into the new model's flat buffers.
	Clone() Layer
	// Bind moves the layer's parameters and gradients into the provided
	// buffers (each exactly NumParams long): current values are copied in
	// and the layer's storage is re-pointed at views of the buffers.
	Bind(params, grads tensor.Vector)
	// SetBackend points the layer's backend-routed kernels at b. Layers
	// whose loops are not part of the tensor.Backend interface (Conv1D's
	// taps, MaxPool1D) ignore it — they are backend-invariant by
	// construction.
	SetBackend(b tensor.Backend)
}

var (
	_ Layer = (*Dense)(nil)
	_ Layer = (*Conv1D)(nil)
)

// Conv1D is a one-dimensional convolution over a single-channel signal:
// the input vector is treated as a length-W sequence, convolved with
// Filters kernels of size Kernel (stride 1, valid padding), producing a
// flattened Filters×(W-Kernel+1) output with optional ReLU. It is the
// convolutional front-end for the "convnet" architecture — the structural
// analog of the paper's CNN models.
type Conv1D struct {
	Filters int
	Kernel  int
	Act     Activation

	// W holds the kernels row-major: W.Row(f) is filter f's taps.
	W *tensor.Matrix
	B tensor.Vector

	GradW *tensor.Matrix
	GradB tensor.Vector

	inWidth int
	in      tensor.Vector
	preAct  tensor.Vector
	out     tensor.Vector
	gradIn  tensor.Vector
}

// NewConv1D builds a convolution layer for inputs of length inWidth.
func NewConv1D(inWidth, filters, kernel int, act Activation, rng *rand.Rand) *Conv1D {
	if kernel <= 0 || filters <= 0 || inWidth < kernel {
		panic(fmt.Sprintf("nn: invalid Conv1D shape inWidth=%d filters=%d kernel=%d",
			inWidth, filters, kernel))
	}
	c := &Conv1D{
		Filters: filters,
		Kernel:  kernel,
		Act:     act,
		W:       tensor.NewMatrix(filters, kernel),
		B:       tensor.NewVector(filters),
		GradW:   tensor.NewMatrix(filters, kernel),
		GradB:   tensor.NewVector(filters),
		inWidth: inWidth,
	}
	tensor.XavierInto(c.W.Data, kernel, filters, rng)
	outW := c.outWidth()
	c.preAct = tensor.NewVector(filters * outW)
	c.out = tensor.NewVector(filters * outW)
	c.gradIn = tensor.NewVector(inWidth)
	return c
}

func (c *Conv1D) outWidth() int { return c.inWidth - c.Kernel + 1 }

// SetBackend implements Layer. The convolution's tap loops are not part of
// the tensor.Backend kernel set, so every backend runs the same code here.
func (c *Conv1D) SetBackend(tensor.Backend) {}

// OutDim implements Layer.
func (c *Conv1D) OutDim() int { return c.Filters * c.outWidth() }

// InDim returns the expected input length.
func (c *Conv1D) InDim() int { return c.inWidth }

// NumParams implements Layer.
func (c *Conv1D) NumParams() int { return len(c.W.Data) + len(c.B) }

// Params implements Layer.
func (c *Conv1D) Params() []tensor.Vector { return []tensor.Vector{c.W.Data, c.B} }

// Grads implements Layer.
func (c *Conv1D) Grads() []tensor.Vector { return []tensor.Vector{c.GradW.Data, c.GradB} }

// Forward implements Layer.
func (c *Conv1D) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != c.inWidth {
		panic(fmt.Sprintf("nn: Conv1D.Forward input %d, want %d", len(x), c.inWidth))
	}
	c.in = x
	outW := c.outWidth()
	for f := 0; f < c.Filters; f++ {
		taps := c.W.Row(f)
		bias := c.B[f]
		base := f * outW
		for p := 0; p < outW; p++ {
			var s float64
			for k, w := range taps {
				s += w * x[p+k]
			}
			c.preAct[base+p] = s + bias
		}
	}
	switch c.Act {
	case ActReLU:
		for i, v := range c.preAct {
			if v > 0 {
				c.out[i] = v
			} else {
				c.out[i] = 0
			}
		}
	default:
		copy(c.out, c.preAct)
	}
	return c.out
}

// Backward implements Layer.
func (c *Conv1D) Backward(grad tensor.Vector, wantIn bool) tensor.Vector {
	outW := c.outWidth()
	if len(grad) != c.Filters*outW {
		panic(fmt.Sprintf("nn: Conv1D.Backward grad %d, want %d", len(grad), c.Filters*outW))
	}
	if c.Act == ActReLU {
		for i := range grad {
			if c.preAct[i] <= 0 {
				grad[i] = 0
			}
		}
	}
	var gradIn tensor.Vector
	if wantIn {
		gradIn = c.gradIn
		gradIn.Zero()
	}
	for f := 0; f < c.Filters; f++ {
		taps := c.W.Row(f)
		gtaps := c.GradW.Row(f)
		base := f * outW
		for p := 0; p < outW; p++ {
			g := grad[base+p]
			if g == 0 {
				continue
			}
			c.GradB[f] += g
			for k := 0; k < c.Kernel; k++ {
				gtaps[k] += g * c.in[p+k]
				if wantIn {
					gradIn[p+k] += g * taps[k]
				}
			}
		}
	}
	return gradIn
}

// Clone implements Layer.
func (c *Conv1D) Clone() Layer {
	nc := &Conv1D{
		Filters: c.Filters,
		Kernel:  c.Kernel,
		Act:     c.Act,
		W:       c.W.Clone(),
		B:       c.B.Clone(),
		GradW:   tensor.NewMatrix(c.Filters, c.Kernel),
		GradB:   tensor.NewVector(c.Filters),
		inWidth: c.inWidth,
	}
	nc.preAct = tensor.NewVector(c.Filters * c.outWidth())
	nc.out = tensor.NewVector(c.Filters * c.outWidth())
	nc.gradIn = tensor.NewVector(c.inWidth)
	return nc
}

// Bind implements Layer: kernels first (row-major), then biases.
func (c *Conv1D) Bind(params, grads tensor.Vector) {
	nw := len(c.W.Data)
	n := nw + len(c.B)
	if len(params) != n || len(grads) != n {
		panic(fmt.Sprintf("nn: Conv1D.Bind got %d/%d scalars, want %d", len(params), len(grads), n))
	}
	copy(params[:nw], c.W.Data)
	copy(params[nw:], c.B)
	copy(grads[:nw], c.GradW.Data)
	copy(grads[nw:], c.GradB)
	c.W.Data = params[:nw:nw]
	c.B = params[nw:n:n]
	c.GradW.Data = grads[:nw:nw]
	c.GradB = grads[nw:n:n]
}
