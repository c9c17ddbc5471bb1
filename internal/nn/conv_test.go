package nn

import (
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/tensor"
)

func testConv(t *testing.T) *Conv1D {
	t.Helper()
	return NewConv1D(12, 3, 4, ActNone, rand.New(rand.NewSource(1)))
}

func TestConvShapes(t *testing.T) {
	c := testConv(t)
	if c.InDim() != 12 {
		t.Fatalf("InDim = %d", c.InDim())
	}
	// valid padding: 12 - 4 + 1 = 9 positions × 3 filters.
	if c.OutDim() != 27 {
		t.Fatalf("OutDim = %d, want 27", c.OutDim())
	}
	if c.NumParams() != 3*4+3 {
		t.Fatalf("NumParams = %d, want 15", c.NumParams())
	}
	out := c.Forward(tensor.NewVector(12))
	if len(out) != 27 {
		t.Fatalf("Forward produced %d outputs", len(out))
	}
}

func TestConvInvalidShapesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewConv1D accepted kernel wider than input")
		}
	}()
	NewConv1D(3, 2, 5, ActNone, rand.New(rand.NewSource(1)))
}

func TestConvForwardKnownValues(t *testing.T) {
	c := NewConv1D(4, 1, 2, ActNone, rand.New(rand.NewSource(2)))
	copy(c.W.Row(0), tensor.Vector{1, -1})
	c.B[0] = 0.5
	out := c.Forward(tensor.Vector{3, 1, 4, 1})
	want := tensor.Vector{3 - 1 + 0.5, 1 - 4 + 0.5, 4 - 1 + 0.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("conv output %v, want %v", out, want)
		}
	}
}

func TestConvReLUMasksNegative(t *testing.T) {
	c := NewConv1D(4, 1, 2, ActReLU, rand.New(rand.NewSource(3)))
	copy(c.W.Row(0), tensor.Vector{1, -1})
	c.B[0] = 0
	out := c.Forward(tensor.Vector{0, 5, 0, 0})
	// positions: 0-5=-5 -> 0 ; 5-0=5 ; 0-0=0
	if out[0] != 0 || out[1] != 5 || out[2] != 0 {
		t.Fatalf("ReLU conv output %v", out)
	}
}

// Numerical gradient check for Conv1D parameters and input gradient.
func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv1D(10, 2, 3, ActReLU, rng)
	x := tensor.NewVector(10)
	tensor.RandnInto(x, 1, rng)

	// Loss = sum of squared outputs / 2; dL/dOut = out.
	loss := func() float64 {
		out := c.Forward(x)
		var s float64
		for _, v := range out {
			s += v * v
		}
		return s / 2
	}

	out := c.Forward(x)
	gradOut := out.Clone()
	gradIn := c.Backward(gradOut, true)

	const h = 1e-6
	// Weight gradients.
	analyticW := c.GradW.Data.Clone()
	for i := range c.W.Data {
		orig := c.W.Data[i]
		c.W.Data[i] = orig + h
		lp := loss()
		c.W.Data[i] = orig - h
		lm := loss()
		c.W.Data[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analyticW[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("conv W grad mismatch at %d: analytic %v numeric %v", i, analyticW[i], numeric)
		}
	}
	// Bias gradients.
	analyticB := c.GradB.Clone()
	for i := range c.B {
		orig := c.B[i]
		c.B[i] = orig + h
		lp := loss()
		c.B[i] = orig - h
		lm := loss()
		c.B[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analyticB[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("conv B grad mismatch at %d: analytic %v numeric %v", i, analyticB[i], numeric)
		}
	}
	// Input gradients.
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp := loss()
		x[i] = orig - h
		lm := loss()
		x[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-gradIn[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("conv input grad mismatch at %d: analytic %v numeric %v", i, gradIn[i], numeric)
		}
	}
}

func TestConvnetModelTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := makeBlobs(rng, 300, 12, 4, 2.0)
	train, test := all[:220], all[220:]

	m, err := NewModel("convnet", 12, 4, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	// The first layer must be the conv front-end.
	if _, ok := m.Layers[0].(*Conv1D); !ok {
		t.Fatalf("convnet first layer is %T, want *Conv1D", m.Layers[0])
	}
	accBefore := m.Evaluate(test)
	if _, err := m.Train(train, TrainConfig{Epochs: 12, BatchSize: 16, LR: 0.2, GradClip: 5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	accAfter := m.Evaluate(test)
	if accAfter <= accBefore || accAfter < 0.6 {
		t.Fatalf("convnet failed to learn: %v -> %v", accBefore, accAfter)
	}
}

func TestConvnetCloneAndSerialize(t *testing.T) {
	m, err := NewModel("convnet", 12, 4, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	p := c.Parameters()
	p.Fill(1)
	if err := c.SetParameters(p); err != nil {
		t.Fatal(err)
	}
	if m.Parameters()[0] == 1 {
		t.Fatal("convnet clone shares storage")
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel("convnet", 12, 4, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	a, b := m.Parameters(), m2.Parameters()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("convnet binary round trip mismatch")
		}
	}
}

func TestConvnetPartialTrainingFreezesConv(t *testing.T) {
	m, err := NewModel("convnet", 12, 4, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	samples := makeBlobs(rng, 60, 12, 4, 2.0)
	frozen := make([]bool, len(m.Layers))
	frozen[0] = true // freeze the conv front-end
	w0 := m.Layers[0].Params()[0].Clone()
	if _, err := m.Train(samples, TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.2, FrozenLayers: frozen, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	for i := range w0 {
		if m.Layers[0].Params()[0][i] != w0[i] {
			t.Fatal("frozen conv layer moved during training")
		}
	}
}

func TestMaxPoolShapes(t *testing.T) {
	p := NewMaxPool1D(2, 9, 2) // trailing partial window kept: ceil(9/2)=5
	if p.InDim() != 18 || p.OutDim() != 10 || p.NumParams() != 0 {
		t.Fatalf("pool dims wrong: in=%d out=%d", p.InDim(), p.OutDim())
	}
	if p.Params() != nil || p.Grads() != nil {
		t.Fatal("pooling must be parameter-free")
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool1D(1, 4, 2)
	out := p.Forward(tensor.Vector{1, 5, 2, 3})
	if out[0] != 5 || out[1] != 3 {
		t.Fatalf("pool forward = %v, want [5 3]", out)
	}
	gradIn := p.Backward(tensor.Vector{10, 20}, true)
	want := tensor.Vector{0, 10, 0, 20}
	for i := range want {
		if gradIn[i] != want[i] {
			t.Fatalf("pool backward = %v, want %v", gradIn, want)
		}
	}
}

func TestMaxPoolInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMaxPool1D accepted window wider than input")
		}
	}()
	NewMaxPool1D(1, 2, 5)
}

func TestConvnetHasPoolingLayer(t *testing.T) {
	m, err := NewModel("convnet", 12, 4, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Layers[1].(*MaxPool1D); !ok {
		t.Fatalf("convnet second layer is %T, want *MaxPool1D", m.Layers[1])
	}
	// End-to-end forward must still produce class logits.
	out := m.Forward(tensor.NewVector(12))
	if len(out) != 4 {
		t.Fatalf("convnet forward produced %d logits", len(out))
	}
}
