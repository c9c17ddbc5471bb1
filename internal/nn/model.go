package nn

import (
	"encoding/binary"
	"fmt"
	"math"

	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// Spec describes a named model architecture. Hidden holds the widths of the
// hidden layers of the (small, actually trained) network. RefParams and
// RefFLOPs carry the parameter count and per-sample forward+backward FLOPs
// of the real model the name refers to; the device cost model uses them so
// that simulated latencies and transfer sizes match real-world workloads
// even though the trained network is tiny.
type Spec struct {
	Name      string
	Hidden    []int
	RefParams int64 // parameters of the real architecture
	RefFLOPs  int64 // forward+backward FLOPs per sample, real architecture
}

// Registry of architectures referenced by the paper's evaluation. The
// reference numbers are the published sizes (ResNet-18: 11.7M params,
// ResNet-34: 21.8M, ResNet-50: 25.6M, ShuffleNet v2 1x: ~2.3M) with FLOPs
// approximated as 3× the forward multiply-accumulates (forward + backward).
var registry = map[string]Spec{
	"resnet18":   {Name: "resnet18", Hidden: []int{48, 48}, RefParams: 11_700_000, RefFLOPs: 10_900_000_000},
	"resnet34":   {Name: "resnet34", Hidden: []int{64, 64}, RefParams: 21_800_000, RefFLOPs: 22_000_000_000},
	"resnet50":   {Name: "resnet50", Hidden: []int{80, 80}, RefParams: 25_600_000, RefFLOPs: 24_600_000_000},
	"shufflenet": {Name: "shufflenet", Hidden: []int{32, 32}, RefParams: 2_300_000, RefFLOPs: 880_000_000},
	"mlp-small":  {Name: "mlp-small", Hidden: []int{24}, RefParams: 200_000, RefFLOPs: 1_200_000},
}

// LookupSpec returns the Spec for a registered architecture name.
func LookupSpec(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("nn: unknown architecture %q", name)
	}
	return s, nil
}

// Model is a feed-forward classifier: a pipeline of Dense layers, ReLU
// on every hidden layer and none on the output layer.
//
// All trainable scalars live in one contiguous flat parameter vector with
// a parallel flat gradient vector; every layer's W/B/GradW/GradB are views
// into those two buffers (laid out by layOut). That makes Parameters a
// zero-copy view, SetParameters a single copy, and the SGD step (clipping
// included, see step) and the FedProx proximal term whole-buffer loops.
type Model struct {
	Spec   Spec
	Layers []*Dense
	nIn    int
	nOut   int

	// params/grads are the flat buffers every layer aliases, layer by
	// layer in pipeline order, each one weights-then-biases.
	params tensor.Vector
	grads  tensor.Vector

	// backend is the tensor backend training and evaluation dispatch
	// through; NewModel starts every model on tensor.Default() (ref, the
	// determinism oracle) and SetBackend swaps it.
	backend tensor.Backend

	// Train's state, reused across calls so the steady-state hot path
	// allocates nothing. The activations and gradients of a minibatch are
	// not the model's: each Train or Evaluate call borrows them from the
	// package's free list (see batch.go).
	order    []int            // shuffled sample order, grown on demand
	trainRNG *rngstate.Source // shuffle stream, reseeded per Train call
}

// NewModel builds a model for the named architecture with the given input
// and output dimensionality, initialized deterministically from rng.
func NewModel(arch string, inDim, outDim int, rng tensor.Uniform) (*Model, error) {
	spec, err := LookupSpec(arch)
	if err != nil {
		return nil, err
	}
	if inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("nn: invalid model dims in=%d out=%d", inDim, outDim)
	}
	m := &Model{Spec: spec, nIn: inDim, nOut: outDim, backend: tensor.Default()}
	m.layOut(nil)
	for _, d := range m.Layers {
		tensor.XavierInto(d.W.Data, d.W.Cols, d.W.Rows, rng)
	}
	return m, nil
}

// layOut allocates the model's flat parameter and gradient buffers, copies
// params into the first (nil leaves it zero), and lays one Dense per layer
// over consecutive ranges of both.
func (m *Model) layOut(params tensor.Vector) {
	widths := append(append([]int{m.nIn}, m.Spec.Hidden...), m.nOut)
	n := 0
	for i := 1; i < len(widths); i++ {
		n += (widths[i-1] + 1) * widths[i]
	}
	m.params, m.grads = tensor.NewVector(n), tensor.NewVector(n)
	copy(m.params, params)
	m.Layers = make([]*Dense, len(widths)-1)
	for i, off := 0, 0; i < len(m.Layers); i++ {
		act, end := ActReLU, off+(widths[i]+1)*widths[i+1]
		if i == len(m.Layers)-1 {
			act = ActNone
		}
		m.Layers[i] = newDense(widths[i], widths[i+1], act, m.params[off:end:end], m.grads[off:end:end])
		off = end
	}
}

// Backend returns the tensor backend the model currently trains on.
func (m *Model) Backend() tensor.Backend { return m.backend }

// SetBackend switches the model to backend b. Models start on
// tensor.Default() ("ref"); switching is cheap and may happen between
// training calls, but not concurrently with them.
func (m *Model) SetBackend(b tensor.Backend) { m.backend = b }

// InDim returns the model input dimensionality.
func (m *Model) InDim() int { return m.nIn }

// NumParams returns the total number of trainable scalars (of the small
// trained network, not the reference architecture).
func (m *Model) NumParams() int { return len(m.params) }

// Parameters returns the model's flat parameter vector, layer by layer
// (weights row-major, then biases). The returned vector ALIASES the model's
// storage — it is a zero-copy view, not a snapshot. Mutating it mutates the
// model; callers that need a frozen copy must Clone it.
func (m *Model) Parameters() tensor.Vector { return m.params }

// Gradients returns the model's flat gradient vector (a zero-copy view,
// parallel to Parameters). Train does not backpropagate into the layers
// below the lowest layer it trains, so after a partial-training call their
// ranges hold no backprop gradient (only FedProx's pull, when ProxMu > 0);
// the SGD step never reads frozen ranges.
func (m *Model) Gradients() tensor.Vector { return m.grads }

// SetParameters loads a flat vector produced by Parameters back into the
// model with a single copy. It returns an error on length mismatch.
// p may alias the model's own storage (the copy is then a no-op).
func (m *Model) SetParameters(p tensor.Vector) error {
	if len(p) != len(m.params) {
		return fmt.Errorf("nn: SetParameters got %d scalars, want %d", len(p), len(m.params))
	}
	copy(m.params, p)
	return nil
}

// Clone returns a deep copy of the model sharing no storage: the clone gets
// its own flat buffers (the parameters copied, the gradients zero) and
// layers.
func (m *Model) Clone() *Model {
	c := &Model{Spec: m.Spec, nIn: m.nIn, nOut: m.nOut, backend: m.backend}
	c.layOut(m.params)
	return c
}

// MarshalBinary encodes the model parameters (not the architecture) as a
// little-endian float64 stream prefixed with the scalar count. It allows
// checkpointing global models between experiment phases.
func (m *Model) MarshalBinary() ([]byte, error) {
	p := m.params
	buf := make([]byte, 8+8*len(p))
	binary.LittleEndian.PutUint64(buf, uint64(len(p)))
	for i, v := range p {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	return buf, nil
}

// UnmarshalBinary loads parameters encoded by MarshalBinary directly into
// the model's flat buffer. The model architecture must already match.
func (m *Model) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("nn: UnmarshalBinary short buffer (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint64(data))
	if n != len(m.params) {
		return fmt.Errorf("nn: UnmarshalBinary has %d scalars, model wants %d", n, len(m.params))
	}
	if len(data) != 8+8*n {
		return fmt.Errorf("nn: UnmarshalBinary length %d, want %d", len(data), 8+8*n)
	}
	for i := range m.params {
		m.params[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	return nil
}
