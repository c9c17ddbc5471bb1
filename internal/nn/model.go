package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"floatfl/internal/tensor"
)

// Spec describes a named model architecture. Hidden holds the widths of the
// hidden layers of the (small, actually trained) network. RefParams and
// RefFLOPs carry the parameter count and per-sample forward+backward FLOPs
// of the real model the name refers to; the device cost model uses them so
// that simulated latencies and transfer sizes match real-world workloads
// even though the trained network is tiny.
type Spec struct {
	Name   string
	Hidden []int
	// ConvFilters/ConvKernel, when positive, prepend a Conv1D front-end —
	// the structural analog of the paper's CNN architectures. PoolWidth,
	// when positive, follows the convolution with max pooling.
	ConvFilters, ConvKernel, PoolWidth int
	RefParams                          int64 // parameters of the real architecture
	RefFLOPs                           int64 // forward+backward FLOPs per sample, real architecture
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
	// convnet: a genuine convolutional front-end (Conv1D + ReLU) over the
	// feature signal, sized like a compact mobile CNN.
	"convnet": {Name: "convnet", Hidden: []int{32}, ConvFilters: 6, ConvKernel: 5, PoolWidth: 2,
		RefParams: 4_500_000, RefFLOPs: 2_600_000_000},
}

// LookupSpec returns the Spec for a registered architecture name.
func LookupSpec(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("nn: unknown architecture %q", name)
	}
	return s, nil
}

// ArchNames returns the registered architecture names, sorted.
func ArchNames() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Model is a feed-forward classifier assembled from Layers (an optional
// Conv1D front-end followed by Dense layers).
//
// All trainable scalars live in one contiguous flat parameter vector with
// a parallel flat gradient vector; every layer's W/B/GradW/GradB are views
// into those two buffers (rebound by bindFlat). That makes Parameters a
// zero-copy view, SetParameters a single copy, and the SGD step, gradient
// clipping, and FedProx proximal term fused whole-buffer loops.
type Model struct {
	Spec   Spec
	Layers []Layer
	nIn    int
	nOut   int

	// params/grads are the flat buffers every layer aliases; offsets[i] is
	// layer i's starting index (layers appear in pipeline order, each one
	// weights-then-biases).
	params  tensor.Vector
	grads   tensor.Vector
	offsets []int

	// backend is the tensor backend training and evaluation dispatch
	// through; NewModel starts every model on tensor.Default() (ref, the
	// determinism oracle) and SetBackend swaps model and layers together.
	backend tensor.Backend
	// batch holds the layer views and scratch of the GEMM-shaped
	// minibatch training path; nil when any layer cannot batch (see
	// batch.go).
	batch *batchState

	// Scratch reused across training/evaluation calls so the steady-state
	// hot path allocates nothing.
	probs    tensor.Vector // softmax outputs
	lossGrad tensor.Vector // dL/dlogits per sample
	order    []int         // shuffled sample order, grown on demand
	trainRNG *rand.Rand    // shuffle stream, reseeded per Train call
}

// NewModel builds a model for the named architecture with the given input
// and output dimensionality, initialized deterministically from rng.
func NewModel(arch string, inDim, outDim int, rng *rand.Rand) (*Model, error) {
	spec, err := LookupSpec(arch)
	if err != nil {
		return nil, err
	}
	if inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("nn: invalid model dims in=%d out=%d", inDim, outDim)
	}
	m := &Model{Spec: spec, nIn: inDim, nOut: outDim, backend: tensor.Default()}
	prev := inDim
	if spec.ConvFilters > 0 && spec.ConvKernel > 0 {
		if inDim < spec.ConvKernel {
			return nil, fmt.Errorf("nn: input dim %d below conv kernel %d", inDim, spec.ConvKernel)
		}
		conv := NewConv1D(inDim, spec.ConvFilters, spec.ConvKernel, ActReLU, rng)
		m.Layers = append(m.Layers, conv)
		prev = conv.OutDim()
		if spec.PoolWidth > 0 {
			convWidth := prev / spec.ConvFilters
			pool := NewMaxPool1D(spec.ConvFilters, convWidth, spec.PoolWidth)
			m.Layers = append(m.Layers, pool)
			prev = pool.OutDim()
		}
	}
	for _, h := range spec.Hidden {
		m.Layers = append(m.Layers, NewDense(prev, h, ActReLU, rng))
		prev = h
	}
	m.Layers = append(m.Layers, NewDense(prev, outDim, ActNone, rng))
	m.bindFlat()
	return m, nil
}

// bindFlat allocates the model's flat parameter/gradient buffers and
// rebinds every layer's storage into them (Bind copies the layers' current
// values, so construction-time initialization survives).
func (m *Model) bindFlat() {
	n := 0
	m.offsets = make([]int, len(m.Layers))
	for i, l := range m.Layers {
		m.offsets[i] = n
		n += l.NumParams()
	}
	m.params = tensor.NewVector(n)
	m.grads = tensor.NewVector(n)
	for i, l := range m.Layers {
		off, end := m.offsets[i], m.offsets[i]+l.NumParams()
		l.Bind(m.params[off:end:end], m.grads[off:end:end])
	}
	m.probs = tensor.NewVector(m.nOut)
	m.lossGrad = tensor.NewVector(m.nOut)
	m.batch = buildBatchState(m.Layers)
}

// layerRange returns layer i's [start, end) slice bounds in the flat
// buffers.
func (m *Model) layerRange(i int) (int, int) {
	return m.offsets[i], m.offsets[i] + m.Layers[i].NumParams()
}

// Backend returns the tensor backend the model currently trains on.
func (m *Model) Backend() tensor.Backend { return m.backend }

// SetBackend switches the model — and every layer — to backend b. Models
// start on tensor.Default() ("ref"); switching is cheap and may happen
// between training calls, but not concurrently with them.
func (m *Model) SetBackend(b tensor.Backend) {
	m.backend = b
	for _, l := range m.Layers {
		l.SetBackend(b)
	}
}

// InDim returns the model input dimensionality.
func (m *Model) InDim() int { return m.nIn }

// OutDim returns the number of classes.
func (m *Model) OutDim() int { return m.nOut }

// NumParams returns the total number of trainable scalars (of the small
// trained network, not the reference architecture).
func (m *Model) NumParams() int { return len(m.params) }

// Forward computes the logits for one sample. The returned slice is owned
// by the final layer and overwritten on the next call.
func (m *Model) Forward(x tensor.Vector) tensor.Vector {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h)
	}
	return h
}

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
// its own flat buffers and every cloned layer is rebound into them.
func (m *Model) Clone() *Model {
	c := &Model{Spec: m.Spec, nIn: m.nIn, nOut: m.nOut, backend: m.backend}
	c.Layers = make([]Layer, len(m.Layers))
	for i, l := range m.Layers {
		c.Layers[i] = l.Clone()
	}
	c.bindFlat()
	c.SetBackend(m.backend)
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
