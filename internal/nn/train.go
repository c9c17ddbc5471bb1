package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// Sample is one labelled training or test example.
type Sample struct {
	X     tensor.Vector
	Label int
}

// TrainConfig controls local SGD training on a client.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// GradClip bounds each gradient component; <= 0 disables clipping.
	GradClip float64
	// FrozenLayers marks layers excluded from the update (partial
	// training). nil or all-false trains everything. Length must equal the
	// layer count when non-nil.
	FrozenLayers []bool
	// ProxMu enables FedProx's proximal term: each parameter is pulled
	// toward ProxAnchor with strength ProxMu (gradient += mu·(w - anchor)).
	// Zero disables it. ProxAnchor must be a flat parameter vector of the
	// model's size when ProxMu > 0.
	ProxMu     float64
	ProxAnchor tensor.Vector
	// Seed drives the shuffling order so local training is reproducible.
	Seed int64
}

// trainFloor returns the index of the lowest layer that is not frozen —
// the lowest layer Train updates — or len(m.Layers) when none is. Backprop
// stops there: that layer accumulates its parameter gradients but computes
// no input gradient, and the layers below it get no backward call. This is
// exact: applyStep never reads a frozen layer's gradient range, and nothing
// reads the floor layer's dL/dIn.
func (m *Model) trainFloor(frozen []bool) int {
	for i := range m.Layers {
		if frozen == nil || !frozen[i] {
			return i
		}
	}
	return len(m.Layers)
}

// Train runs mini-batch SGD over the samples according to cfg and returns
// the mean training loss of the final epoch. Frozen layers still run
// forward (their activations are needed) but their parameters are not
// updated — matching how partial training reduces update computation and
// communication without changing the forward pass. Backward stops at the
// lowest trained layer (trainFloor), so a frozen prefix costs no backward
// work at all. Each minibatch runs through the backend's GEMMs as one
// matrix, with the bits of running its samples one at a time (batch.go).
func (m *Model) Train(samples []Sample, cfg TrainConfig) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: Train called with no samples")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("nn: invalid TrainConfig %+v", cfg)
	}
	if cfg.FrozenLayers != nil && len(cfg.FrozenLayers) != len(m.Layers) {
		return 0, fmt.Errorf("nn: FrozenLayers has %d entries, model has %d layers",
			len(cfg.FrozenLayers), len(m.Layers))
	}
	if cfg.ProxMu > 0 && len(cfg.ProxAnchor) != m.NumParams() {
		return 0, fmt.Errorf("nn: ProxAnchor has %d scalars, model has %d",
			len(cfg.ProxAnchor), m.NumParams())
	}
	// Reuse the model-owned RNG and order scratch: reseeding is O(1) and
	// produces the same stream as a fresh rand.New(rngstate.New(seed)) —
	// math/rand's for that seed — so repeated Train calls stay
	// deterministic without per-call allocation.
	if m.trainRNG == nil {
		m.trainRNG = rand.New(rngstate.New(cfg.Seed))
	} else {
		m.trainRNG.Seed(cfg.Seed)
	}
	if cap(m.order) < len(samples) {
		m.order = make([]int, len(samples))
	}
	order := m.order[:len(samples)]
	for i := range order {
		order[i] = i
	}

	floor := m.trainFloor(cfg.FrozenLayers)
	b := takeBatch()
	defer b.release()

	var lastEpochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		m.trainRNG.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			m.grads.Zero()
			epochLoss = m.minibatch(b, samples, order[start:end], floor, epochLoss)
			if cfg.ProxMu > 0 {
				// FedProx proximal term as one fused flat loop; mu is scaled
				// by the batch size because gradients are batch sums.
				m.grads.AddScaledDiff(cfg.ProxMu*float64(end-start), m.params, cfg.ProxAnchor)
			}
			m.applyStep(cfg.LR/float64(end-start), cfg.GradClip, cfg.FrozenLayers)
		}
		lastEpochLoss = epochLoss / float64(len(samples))
	}
	return lastEpochLoss, nil
}

// applyStep performs the SGD update params -= lr·grads with per-component
// clipping at clip (disabled when <= 0). With no frozen layers it is one
// step over the flat buffers; with frozen layers each trained layer steps
// its own views.
func (m *Model) applyStep(lr, clip float64, frozen []bool) {
	if !slices.Contains(frozen, true) {
		step(m.params, m.grads, lr, clip)
		return
	}
	for i, d := range m.Layers {
		if !frozen[i] {
			step(d.W.Data, d.GradW.Data, lr, clip)
			step(d.B, d.GradB, lr, clip)
		}
	}
}

// step clips each gradient to [-clip, clip] (not when clip <= 0), writes
// it back to grads and adds -lr times it to the parameter, in one pass.
// float64(…) rounds the product on its own, so no target fuses it.
func step(params, grads tensor.Vector, lr, clip float64) {
	if !(clip > 0) {
		clip = math.Inf(1)
	}
	grads = grads[:len(params)]
	for i, g := range grads {
		if g > clip {
			g = clip
		} else if g < -clip {
			g = -clip
		}
		grads[i] = g
		params[i] += float64(-lr * g)
	}
}

// evalRows is how many samples Evaluate runs through the model at a time.
const evalRows = 32

// Evaluate returns the classification accuracy over the samples: the
// share whose largest logit is the label (an empty set scores 0). It does
// not modify the model, so calls may run concurrently with each other and
// with MarshalBinary.
func (m *Model) Evaluate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	b := takeBatch()
	defer b.release()
	correct := 0
	for start := 0; start < len(samples); start += evalRows {
		block := samples[start:min(start+evalRows, len(samples))]
		b.shape(m, len(block), false)
		for r, s := range block {
			b.load(r, s.X)
		}
		logits := m.forward(b)
		for r, s := range block {
			if row(logits, r).Argmax() == s.Label {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(samples))
}
