package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/opt"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// refTrain is Train as it was: one sample at a time through the
// matrix–vector kernels, with the full backward pass — every layer runs
// backward, each computing its input gradient, whatever the frozen mask —
// built from its own copies of the per-layer loops Train once ran as
// separate passes: refForward, refBackward and refStep. Only shuffling,
// the FedProx term and the backend's kernels are shared with Train. It is
// the oracle TestTrainMatchesFullBackward and FuzzTrainBitExact hold
// Train's minibatch GEMMs to.
func refTrain(m *Model, samples []Sample, cfg TrainConfig) float64 {
	rng := rand.New(rngstate.New(cfg.Seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	layers := make([]refLayer, len(m.Layers))
	for i, d := range m.Layers {
		layers[i] = refLayer{Dense: d, be: m.backend, preAct: tensor.NewVector(d.W.Rows),
			out: tensor.NewVector(d.W.Rows), gradIn: tensor.NewVector(d.W.Cols)}
	}
	probs, lossGrad := tensor.NewVector(m.nOut), tensor.NewVector(m.nOut)
	var lastEpochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			clear(m.grads)
			for _, idx := range order[start:end] {
				h := samples[idx].X
				for i := range layers {
					h = refForward(&layers[i], h)
				}
				epochLoss += m.backend.SoftmaxXent(probs, lossGrad, h, samples[idx].Label)
				grad := lossGrad
				for i := len(layers) - 1; i >= 0; i-- {
					grad = refBackward(&layers[i], grad)
				}
			}
			if cfg.ProxMu > 0 {
				m.grads.AddScaledDiff(cfg.ProxMu*float64(end-start), m.params, cfg.ProxAnchor)
			}
			for i, d := range m.Layers {
				if cfg.FrozenLayers == nil || !cfg.FrozenLayers[i] {
					refStep(d.W.Data, d.GradW.Data, cfg.LR/float64(end-start), cfg.GradClip)
					refStep(d.B, d.GradB, cfg.LR/float64(end-start), cfg.GradClip)
				}
			}
		}
		lastEpochLoss = epochLoss / float64(len(samples))
	}
	return lastEpochLoss
}

// refLayer is a Dense layer with the scratch of one sample's forward and
// backward pass.
type refLayer struct {
	*Dense
	be     tensor.Backend
	in     tensor.Vector // last input (aliases caller data)
	preAct tensor.Vector // W·x + b before activation
	out    tensor.Vector // activated output
	gradIn tensor.Vector // dL/dIn
}

// refForward is a layer's forward pass for one sample as separate passes:
// the matrix–vector product, the bias add as an axpy, then a branchy ReLU.
func refForward(d *refLayer, x tensor.Vector) tensor.Vector {
	d.in = x
	d.be.MatVec(d.W, d.preAct, x)
	d.preAct.AddScaled(1, d.B)
	for i, v := range d.preAct {
		if d.Act == ActReLU && !(v > 0) {
			v = 0
		}
		d.out[i] = v
	}
	return d.out
}

// refBackward is a layer's backward pass for one sample (always computing
// dL/dIn) as separate passes: a branchy ReLU mask, the bias gradient as an
// axpy, then the rank-one weight gradient and the transposed product.
func refBackward(d *refLayer, g tensor.Vector) tensor.Vector {
	for i := range g {
		if d.Act == ActReLU && d.preAct[i] <= 0 {
			g[i] = 0
		}
	}
	d.GradB.AddScaled(1, g)
	d.be.AddOuterScaled(d.GradW, 1, g, d.in)
	d.be.MatVecT(d.W, d.gradIn, g)
	return d.gradIn
}

// refStep is the SGD step as two passes: clamp the gradients in place
// (when clip > 0), then the axpy p += (-lr)·g, its product rounded on its
// own as step's is.
func refStep(p, g tensor.Vector, lr, clip float64) {
	if clip > 0 {
		for i, x := range g {
			if x > clip {
				g[i] = clip
			} else if x < -clip {
				g[i] = -clip
			}
		}
	}
	alpha := -lr
	for i := range p {
		p[i] += float64(alpha * g[i])
	}
}

// checkTrainBitExact trains two clones of m, one with Train and one with
// refTrain, and requires the same loss and parameters bit for bit. The
// gradient buffers must match too, range by range: from the lowest trained
// layer up they hold the last batch's gradients; below it backprop wrote
// nothing, so they hold only the FedProx pull (zero without FedProx).
func checkTrainBitExact(t *testing.T, name string, m *Model, samples []Sample, cfg TrainConfig) {
	t.Helper()
	got, want := m.Clone(), m.Clone()
	loss, err := got.Train(samples, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantLoss := refTrain(want, samples, cfg)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: loss %v, full backward %v", name, loss, wantLoss)
	}
	for i, v := range got.Parameters() {
		if math.Float64bits(v) != math.Float64bits(want.params[i]) {
			t.Fatalf("%s: parameter %d is %v, full backward %v", name, i, v, want.params[i])
		}
	}
	// The lowest trained layer, found here rather than by trainFloor so a
	// floor one layer off fails.
	wantG := want.Gradients().Clone()
	below, off := len(wantG), 0
	for li, l := range m.Layers {
		if cfg.FrozenLayers == nil || !cfg.FrozenLayers[li] {
			below = off
			break
		}
		off += len(l.W.Data) + len(l.B)
	}
	prox := wantG[:below]
	prox.Zero()
	if cfg.ProxMu > 0 {
		last := len(samples) - (len(samples)-1)/cfg.BatchSize*cfg.BatchSize
		prox.AddScaledDiff(cfg.ProxMu*float64(last), want.params[:below], cfg.ProxAnchor[:below])
	}
	for i, v := range got.Gradients() {
		if math.Float64bits(v) != math.Float64bits(wantG[i]) {
			t.Fatalf("%s: gradient %d is %v, want %v (floor at scalar %d)", name, i, v, wantG[i], below)
		}
	}
}

type namedMask struct {
	name   string
	frozen []bool
}

// trainMasks is every kind of frozen mask Train meets: none, the partial
// training prefixes, all but the output layer, and everything.
func trainMasks(layers int) []namedMask {
	allButLast, all := make([]bool, layers), make([]bool, layers)
	for i := range all {
		all[i] = true
		allButLast[i] = i < layers-1
	}
	return []namedMask{
		{"nil", nil},
		{"partial25", opt.FrozenLayerMask(layers, 0.25)},
		{"partial50", opt.FrozenLayerMask(layers, 0.5)},
		{"partial75", opt.FrozenLayerMask(layers, 0.75)},
		{"all-but-last", allButLast},
		{"all", all},
	}
}

// lookupBackend returns the named tensor backend or fails the test.
func lookupBackend(t *testing.T, name string) tensor.Backend {
	t.Helper()
	be, err := tensor.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// proxAnchor is m's parameters nudged by a fixed pattern, so FedProx's
// pull is nonzero on every layer, frozen or not.
func proxAnchor(m *Model) tensor.Vector {
	a := m.Parameters().Clone()
	for i := range a {
		a[i] += 0.01 * float64(i%7-3)
	}
	return a
}

// Train stops backprop at the lowest layer it trains; everything it
// returns or leaves in the parameters must be what the full backward pass
// produced, on every architecture, every mask kind, and with FedProx and
// clipping each off and on.
func TestTrainMatchesFullBackward(t *testing.T) {
	samples := makeBlobs(rand.New(rand.NewSource(31)), 30, 12, 5, 2.0)
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		anchor := proxAnchor(m)
		for _, mask := range trainMasks(len(m.Layers)) {
			for _, mu := range []float64{0, 0.05} {
				for _, clip := range []float64{0, 0.5} {
					cfg := TrainConfig{Epochs: 2, BatchSize: 7, LR: 0.1, GradClip: clip,
						FrozenLayers: mask.frozen, ProxMu: mu, ProxAnchor: anchor, Seed: 5}
					name := fmt.Sprintf("%s/%s/mu=%v/clip=%v", arch, mask.name, mu, clip)
					checkTrainBitExact(t, name, m, samples, cfg)
				}
			}
		}
	}
}

// FuzzTrainBitExact holds Train to the full backward pass for any
// architecture, frozen mask (prefix or not), sample count, batch size,
// epoch count, FedProx and clipping setting. The backend byte picks one
// of the registry's two names for ref's kernels; it stays in the signature
// so the committed corpus keeps decoding.
func FuzzTrainBitExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1), uint8(20), uint8(4), false, false)
	f.Add(uint8(1), uint8(1), uint8(0x81), int64(2), uint8(9), uint8(3), true, false)
	f.Add(uint8(2), uint8(0), uint8(0x83), int64(3), uint8(17), uint8(16), false, true)
	f.Add(uint8(0), uint8(1), uint8(0x82), int64(4), uint8(5), uint8(1), true, true)
	f.Add(uint8(5), uint8(1), uint8(0xff), int64(5), uint8(11), uint8(5), true, true)
	f.Fuzz(func(t *testing.T, arch, backend, mask uint8, seed int64, n, batch uint8, prox, clip bool) {
		names := allArchNames()
		rng := rand.New(rand.NewSource(seed))
		m, err := NewModel(names[int(arch)%len(names)], 12, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		m.SetBackend(lookupBackend(t, []string{"ref", "fast"}[backend%2]))
		// The high bit selects a mask; the low bits freeze layer i.
		var frozen []bool
		if mask&0x80 != 0 {
			frozen = make([]bool, len(m.Layers))
			for i := range frozen {
				frozen[i] = mask>>i&1 == 1
			}
		}
		cfg := TrainConfig{Epochs: 1 + int(n)%2, BatchSize: 1 + int(batch)%16, LR: 0.1,
			FrozenLayers: frozen, ProxAnchor: proxAnchor(m), Seed: seed}
		if prox {
			cfg.ProxMu = 0.05
		}
		if clip {
			cfg.GradClip = 0.5
		}
		samples := makeBlobs(rng, 1+int(n)%40, 12, 5, 2.0)
		checkTrainBitExact(t, fmt.Sprintf("%s mask=%v", m.Spec.Name, frozen), m, samples, cfg)
	})
}
