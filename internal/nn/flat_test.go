package nn

import (
	"math/rand"
	"sort"
	"testing"

	"floatfl/internal/tensor"
)

// flatTestModel builds a model for any registered arch.
func flatTestModel(t *testing.T, arch string) *Model {
	t.Helper()
	m, err := NewModel(arch, 12, 5, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("NewModel(%s): %v", arch, err)
	}
	return m
}

// allArchNames returns the registered architecture names, sorted.
func allArchNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The flat-layout contract: Parameters() is a zero-copy view of the same
// storage every layer aliases, so a write through either side is visible
// on the other.
func TestParametersAliasLayerStorage(t *testing.T) {
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		p := m.Parameters()
		if len(p) != m.NumParams() {
			t.Fatalf("%s: Parameters length %d, want %d", arch, len(p), m.NumParams())
		}
		// Write through the flat view, read through each layer's views.
		for i := range p {
			p[i] = float64(i) + 0.25
		}
		off := 0
		for li, l := range m.Layers {
			for _, view := range []tensor.Vector{l.W.Data, l.B} {
				for k := range view {
					if view[k] != float64(off)+0.25 {
						t.Fatalf("%s layer %d: flat write not visible through layer view at %d",
							arch, li, off)
					}
					off++
				}
			}
		}
		if off != m.NumParams() {
			t.Fatalf("%s: layer views cover %d scalars, model has %d", arch, off, m.NumParams())
		}
		// Write through a layer view, read through the flat view.
		off = 0
		for li, l := range m.Layers {
			l.W.Data[0] = -99
			if p[off] != -99 {
				t.Fatalf("%s layer %d: layer write not visible through Parameters()", arch, li)
			}
			off += len(l.W.Data) + len(l.B)
		}
	}
}

// Gradients() obeys the same aliasing contract against each layer's Grads.
func TestGradientsAliasLayerStorage(t *testing.T) {
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		g := m.Gradients()
		if len(g) != m.NumParams() {
			t.Fatalf("%s: Gradients length %d, want %d", arch, len(g), m.NumParams())
		}
		g.Fill(3)
		for li, l := range m.Layers {
			for _, view := range []tensor.Vector{l.GradW.Data, l.GradB} {
				for k := range view {
					if view[k] != 3 {
						t.Fatalf("%s layer %d: flat gradient write not visible in layer view",
							arch, li)
					}
				}
			}
		}
		// Zeroing through the layer views must clear the flat buffer.
		for _, l := range m.Layers {
			l.GradW.Data.Zero()
			l.GradB.Zero()
		}
		for i := range g {
			if g[i] != 0 {
				t.Fatalf("%s: zeroing layer gradient views left flat gradient %v at %d", arch, g[i], i)
			}
		}
	}
}

// Clone must share no storage with the original: not parameters, not
// gradients.
func TestCloneSharesNothing(t *testing.T) {
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		c := m.Clone()
		if c.NumParams() != m.NumParams() {
			t.Fatalf("%s: clone has %d params, original %d", arch, c.NumParams(), m.NumParams())
		}
		origP := m.Parameters().Clone()
		origG := m.Gradients().Clone()
		c.Parameters().Fill(7)
		c.Gradients().Fill(-7)
		// Train the clone, which writes its parameters and gradients.
		x := tensor.NewVector(m.InDim())
		x.Fill(0.5)
		if _, err := c.Train([]Sample{{X: x, Label: 1}}, TrainConfig{Epochs: 1, BatchSize: 1, LR: 0.1}); err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Parameters() {
			if v != origP[i] {
				t.Fatalf("%s: mutating clone changed original parameters at %d", arch, i)
			}
		}
		for i, v := range m.Gradients() {
			if v != origG[i] {
				t.Fatalf("%s: mutating clone changed original gradients at %d", arch, i)
			}
		}
		// And the reverse: mutate the original, clone unaffected.
		beforeCloneP := c.Parameters().Clone()
		m.Parameters().Fill(11)
		for i, v := range c.Parameters() {
			if v != beforeCloneP[i] {
				t.Fatalf("%s: mutating original changed clone at %d", arch, i)
			}
		}
	}
}

// Clone must preserve parameter values bit-exactly and train identically —
// the rebind into fresh flat buffers cannot perturb anything.
func TestCloneBitExactAndTrainsIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples := makeBlobs(rng, 48, 12, 5, 2.0)
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		c := m.Clone()
		a, b := m.Parameters(), c.Parameters()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: clone parameter %d differs bitwise", arch, i)
			}
		}
		cfg := TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.2, GradClip: 5, Seed: 21}
		if _, err := m.Train(samples, cfg); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if _, err := c.Train(samples, cfg); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: clone diverged from original after identical training at %d", arch, i)
			}
		}
	}
}

// MarshalBinary/UnmarshalBinary must round-trip bit-exactly for every
// registered architecture.
func TestBinaryRoundTripAllArchs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	samples := makeBlobs(rng, 32, 12, 5, 2.0)
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		// Train a little so the buffer holds non-initialization values.
		if _, err := m.Train(samples, TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.1, Seed: 3}); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		m2 := flatTestModel(t, arch)
		if err := m2.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		a, b := m.Parameters(), m2.Parameters()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: binary round trip not bit-exact at %d", arch, i)
			}
		}
		// The restored model must behave identically, not just compare equal.
		accA, lossA := m.Evaluate(samples), meanLoss(m, samples)
		accB, lossB := m2.Evaluate(samples), meanLoss(m2, samples)
		if accA != accB || lossA != lossB {
			t.Fatalf("%s: restored model evaluates differently (%v/%v vs %v/%v)",
				arch, accA, lossA, accB, lossB)
		}
	}
}

// The layers' views must tile [0, NumParams) of both flat buffers
// contiguously in pipeline order, each layer weights-then-biases.
func TestFlatOffsetsContiguous(t *testing.T) {
	for _, arch := range allArchNames() {
		m := flatTestModel(t, arch)
		off := 0
		for li, l := range m.Layers {
			nw := len(l.W.Data)
			for _, v := range []struct {
				view, flat tensor.Vector
				at         int
			}{{l.W.Data, m.params, off}, {l.B, m.params, off + nw},
				{l.GradW.Data, m.grads, off}, {l.GradB, m.grads, off + nw}} {
				if &v.view[0] != &v.flat[v.at] {
					t.Fatalf("%s layer %d: view does not start at flat index %d", arch, li, v.at)
				}
			}
			off += nw + len(l.B)
		}
		if off != m.NumParams() {
			t.Fatalf("%s: offsets cover %d scalars, model has %d", arch, off, m.NumParams())
		}
	}
}

// SetParameters with the model's own view must be a harmless self-copy.
func TestSetParametersSelfAlias(t *testing.T) {
	m := flatTestModel(t, "shufflenet")
	want := m.Parameters().Clone()
	if err := m.SetParameters(m.Parameters()); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Parameters() {
		if v != want[i] {
			t.Fatalf("self-aliasing SetParameters changed parameter %d", i)
		}
	}
}
