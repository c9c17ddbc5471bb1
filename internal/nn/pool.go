package nn

import (
	"fmt"

	"floatfl/internal/tensor"
)

// MaxPool1D downsamples a Conv1D output: for each of Channels feature
// maps of width InWidth, it takes the maximum over non-overlapping windows
// of Width positions (stride = Width; a trailing partial window is kept).
// It holds no parameters; Backward routes each gradient to the position
// that won the max.
type MaxPool1D struct {
	Channels int
	InWidth  int
	Width    int

	out    tensor.Vector
	argmax []int         // winning input index per output element
	gradIn tensor.Vector // dL/dIn returned by Backward, reused per call
}

var _ Layer = (*MaxPool1D)(nil)

// NewMaxPool1D builds a pooling layer over channels × inWidth inputs.
func NewMaxPool1D(channels, inWidth, width int) *MaxPool1D {
	if channels <= 0 || inWidth <= 0 || width <= 0 || width > inWidth {
		panic(fmt.Sprintf("nn: invalid MaxPool1D shape channels=%d inWidth=%d width=%d",
			channels, inWidth, width))
	}
	p := &MaxPool1D{Channels: channels, InWidth: inWidth, Width: width}
	p.out = tensor.NewVector(p.OutDim())
	p.argmax = make([]int, p.OutDim())
	p.gradIn = tensor.NewVector(p.InDim())
	return p
}

func (p *MaxPool1D) outWidth() int { return (p.InWidth + p.Width - 1) / p.Width }

// OutDim implements Layer.
func (p *MaxPool1D) OutDim() int { return p.Channels * p.outWidth() }

// InDim returns the expected input length.
func (p *MaxPool1D) InDim() int { return p.Channels * p.InWidth }

// NumParams implements Layer (pooling is parameter-free).
func (p *MaxPool1D) NumParams() int { return 0 }

// Params implements Layer.
func (p *MaxPool1D) Params() []tensor.Vector { return nil }

// Grads implements Layer.
func (p *MaxPool1D) Grads() []tensor.Vector { return nil }

// SetBackend implements Layer (pooling has no backend-routed kernels).
func (p *MaxPool1D) SetBackend(tensor.Backend) {}

// Forward implements Layer.
func (p *MaxPool1D) Forward(x tensor.Vector) tensor.Vector {
	if len(x) != p.InDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.Forward input %d, want %d", len(x), p.InDim()))
	}
	ow := p.outWidth()
	for c := 0; c < p.Channels; c++ {
		inBase := c * p.InWidth
		outBase := c * ow
		for o := 0; o < ow; o++ {
			start := o * p.Width
			end := start + p.Width
			if end > p.InWidth {
				end = p.InWidth
			}
			best, bestIdx := x[inBase+start], inBase+start
			for i := start + 1; i < end; i++ {
				if x[inBase+i] > best {
					best, bestIdx = x[inBase+i], inBase+i
				}
			}
			p.out[outBase+o] = best
			p.argmax[outBase+o] = bestIdx
		}
	}
	return p.out
}

// Backward implements Layer: gradients flow only to the max positions. The
// returned slice is owned by the layer and overwritten on the next call.
func (p *MaxPool1D) Backward(grad tensor.Vector, wantIn bool) tensor.Vector {
	if len(grad) != p.OutDim() {
		panic(fmt.Sprintf("nn: MaxPool1D.Backward grad %d, want %d", len(grad), p.OutDim()))
	}
	if !wantIn {
		return nil
	}
	gradIn := p.gradIn
	gradIn.Zero()
	for i, g := range grad {
		gradIn[p.argmax[i]] += g
	}
	return gradIn
}

// Clone implements Layer.
func (p *MaxPool1D) Clone() Layer {
	return NewMaxPool1D(p.Channels, p.InWidth, p.Width)
}

// Bind implements Layer (pooling holds no parameters).
func (p *MaxPool1D) Bind(params, grads tensor.Vector) {
	if len(params) != 0 || len(grads) != 0 {
		panic(fmt.Sprintf("nn: MaxPool1D.Bind got %d/%d scalars, want 0", len(params), len(grads)))
	}
}
