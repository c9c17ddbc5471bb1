package nn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"floatfl/internal/tensor"
)

func testModel(t *testing.T, arch string) *Model {
	t.Helper()
	m, err := NewModel(arch, 8, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewModel(%s): %v", arch, err)
	}
	return m
}

func TestLookupSpec(t *testing.T) {
	for _, name := range []string{"resnet18", "resnet34", "resnet50", "shufflenet", "mlp-small"} {
		s, err := LookupSpec(name)
		if err != nil {
			t.Fatalf("LookupSpec(%s): %v", name, err)
		}
		if s.RefParams <= 0 || s.RefFLOPs <= 0 {
			t.Fatalf("spec %s has non-positive reference sizes: %+v", name, s)
		}
	}
	if _, err := LookupSpec("vgg99"); err == nil {
		t.Fatal("LookupSpec accepted unknown architecture")
	}
}

func TestSpecSizeOrdering(t *testing.T) {
	// Relative size ordering must mirror the real architectures, because
	// the cost model depends on it (Fig 12/13 shapes).
	get := func(n string) Spec { s, _ := LookupSpec(n); return s }
	if !(get("shufflenet").RefParams < get("resnet18").RefParams &&
		get("resnet18").RefParams < get("resnet34").RefParams &&
		get("resnet34").RefParams < get("resnet50").RefParams) {
		t.Fatal("reference parameter counts are not ordered like the real models")
	}
}

func TestModelForwardShape(t *testing.T) {
	m := testModel(t, "resnet18")
	out := logitsOf(m, tensor.NewVector(8))
	if len(out) != 4 {
		t.Fatalf("forward returned %d logits, want 4", len(out))
	}
}

// logitsOf runs x through m as a one-sample minibatch and returns a copy
// of its logits.
func logitsOf(m *Model, x tensor.Vector) tensor.Vector {
	b := takeBatch()
	defer b.release()
	b.shape(m, 1, false)
	b.load(0, x)
	return row(m.forward(b), 0).Clone()
}

// gradsOf sets the model's gradient buffer to s's gradients, backprop
// stopping at layer floor.
func gradsOf(m *Model, s Sample, floor int) {
	b := takeBatch()
	defer b.release()
	m.Gradients().Zero()
	m.minibatch(b, []Sample{s}, []int{0}, floor, 0)
}

func TestParametersRoundTrip(t *testing.T) {
	m := testModel(t, "resnet34")
	p := m.Parameters()
	if len(p) != m.NumParams() {
		t.Fatalf("Parameters length %d, want %d", len(p), m.NumParams())
	}
	p2 := p.Clone()
	for i := range p2 {
		p2[i] += 0.5
	}
	if err := m.SetParameters(p2); err != nil {
		t.Fatal(err)
	}
	p3 := m.Parameters()
	for i := range p3 {
		if p3[i] != p2[i] {
			t.Fatal("SetParameters/Parameters round trip mismatch")
		}
	}
	if err := m.SetParameters(tensor.NewVector(3)); err == nil {
		t.Fatal("SetParameters accepted wrong length")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := testModel(t, "mlp-small")
	c := m.Clone()
	p := c.Parameters()
	p.Fill(7)
	if err := c.SetParameters(p); err != nil {
		t.Fatal(err)
	}
	if m.Parameters()[0] == 7 {
		t.Fatal("Clone shares parameter storage with original")
	}
	// Clone must be usable for training without touching the original.
	rng := rand.New(rand.NewSource(3))
	samples := makeBlobs(rng, 40, 8, 4, 2.0)
	// Snapshot (Parameters aliases m, so a live view would trivially equal
	// itself), train the clone, and check the original did not move.
	before := m.Parameters().Clone()
	if _, err := c.Train(samples, TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := m.Parameters()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("training a clone modified the original model")
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := testModel(t, "shufflenet")
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m2 := testModel(t, "shufflenet")
	if err := m2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	a, b := m.Parameters(), m2.Parameters()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("binary round trip mismatch")
		}
	}
	if err := m2.UnmarshalBinary(blob[:4]); err == nil {
		t.Fatal("UnmarshalBinary accepted truncated buffer")
	}
}

// FuzzModelUnmarshal holds UnmarshalBinary, which reads floatd's model
// blobs and snapshots, to its contract for any bytes: an error that leaves
// the parameters bit for bit as they were, or a load whose MarshalBinary
// gives the same bytes back.
func FuzzModelUnmarshal(f *testing.F) {
	newModel := func(tb testing.TB) *Model {
		m, err := NewModel("mlp-small", 3, 2, rand.New(rand.NewSource(4)))
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	blob, err := newModel(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add(append(append([]byte(nil), blob...), 0))
	f.Add(blob[:8])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newModel(t)
		before := m.Parameters().Clone()
		if err := m.UnmarshalBinary(data); err != nil {
			for i, v := range m.Parameters() {
				if math.Float64bits(v) != math.Float64bits(before[i]) {
					t.Fatalf("rejected blob (%v) changed parameter %d", err, i)
				}
			}
			return
		}
		out, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted %d-byte blob does not round-trip", len(data))
		}
	})
}

// makeBlobs produces a linearly separable-ish Gaussian blob problem.
func makeBlobs(rng *rand.Rand, n, dim, classes int, sep float64) []Sample {
	centers := make([]tensor.Vector, classes)
	for c := range centers {
		centers[c] = tensor.NewVector(dim)
		tensor.RandnInto(centers[c], sep, rng)
	}
	out := make([]Sample, n)
	for i := range out {
		c := rng.Intn(classes)
		x := centers[c].Clone()
		noise := tensor.NewVector(dim)
		tensor.RandnInto(noise, 0.4, rng)
		x.AddScaled(1, noise)
		out[i] = Sample{X: x, Label: c}
	}
	return out
}

func TestTrainingReducesLossAndLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	train := makeBlobs(rng, 200, 8, 4, 2.0)
	test := makeBlobs(rng, 100, 8, 4, 2.0)
	// Same centers require the same rng stream; regenerate with one stream.
	rng = rand.New(rand.NewSource(11))
	all := makeBlobs(rng, 300, 8, 4, 2.0)
	train, test = all[:200], all[200:]

	m := testModel(t, "resnet18")
	accBefore, lossBefore := m.Evaluate(test), meanLoss(m, test)
	if _, err := m.Train(train, TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.3, GradClip: 5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	accAfter, lossAfter := m.Evaluate(test), meanLoss(m, test)
	if accAfter <= accBefore {
		t.Fatalf("training did not improve accuracy: %v -> %v", accBefore, accAfter)
	}
	if lossAfter >= lossBefore {
		t.Fatalf("training did not reduce loss: %v -> %v", lossBefore, lossAfter)
	}
	if accAfter < 0.7 {
		t.Fatalf("model failed to learn an easy problem: accuracy %v", accAfter)
	}
}

func TestFrozenLayersDoNotMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := makeBlobs(rng, 60, 8, 4, 2.0)
	m := testModel(t, "resnet18")
	frozen := make([]bool, len(m.Layers))
	frozen[0] = true
	w0 := m.Layers[0].W.Data.Clone()
	w1 := m.Layers[1].W.Data.Clone()
	if _, err := m.Train(samples, TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.2, FrozenLayers: frozen, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range w0 {
		if m.Layers[0].W.Data[i] != w0[i] {
			t.Fatal("frozen layer parameters changed during training")
		}
	}
	moved := false
	for i := range w1 {
		if m.Layers[1].W.Data[i] != w1[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("unfrozen layer parameters did not change during training")
	}
}

func TestTrainValidation(t *testing.T) {
	m := testModel(t, "mlp-small")
	if _, err := m.Train(nil, TrainConfig{Epochs: 1, BatchSize: 1, LR: 0.1}); err == nil {
		t.Fatal("Train accepted empty sample set")
	}
	s := []Sample{{X: tensor.NewVector(8), Label: 0}}
	if _, err := m.Train(s, TrainConfig{Epochs: 0, BatchSize: 1, LR: 0.1}); err == nil {
		t.Fatal("Train accepted zero epochs")
	}
	if _, err := m.Train(s, TrainConfig{Epochs: 1, BatchSize: 1, LR: 0.1, FrozenLayers: []bool{true}}); err == nil {
		t.Fatal("Train accepted FrozenLayers of wrong length")
	}
}

func TestTrainDeterministicUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := makeBlobs(rng, 50, 8, 4, 2.0)
	run := func() tensor.Vector {
		m := testModel(t, "mlp-small")
		if _, err := m.Train(samples, TrainConfig{Epochs: 3, BatchSize: 8, LR: 0.2, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		return m.Parameters()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic under fixed seed")
		}
	}
}

func TestEvaluateEmptySet(t *testing.T) {
	m := testModel(t, "mlp-small")
	acc, loss := m.Evaluate(nil), meanLoss(m, nil)
	if acc != 0 || loss != 0 {
		t.Fatalf("Evaluate(nil) = %v, %v; want zeros", acc, loss)
	}
}

// Property: the softmax cross-entropy gradient at the logits sums to zero
// (probs sum to 1 and the one-hot subtracts 1).
func TestGradientSumProperty(t *testing.T) {
	f := func(seed int64, labelRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewModel("mlp-small", 6, 3, rng)
		if err != nil {
			return false
		}
		x := tensor.NewVector(6)
		tensor.RandnInto(x, 1, rng)
		label := int(labelRaw) % 3
		gradsOf(m, Sample{X: x, Label: label}, 0)
		// The bias gradient of the output layer equals dL/dlogits.
		var sum float64
		for _, g := range m.Layers[len(m.Layers)-1].GradB {
			sum += g
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Numerical gradient check on a tiny model: analytic gradients from
// backprop must match finite differences — with every layer trained, and
// with layer 0 frozen, where backprop stops at layer 1 and that layer
// computes its parameter gradients but no input gradient.
func TestGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, err := NewModel("mlp-small", 4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewVector(4)
	tensor.RandnInto(x, 1, rng)
	s := Sample{X: x, Label: 1}

	for _, tc := range []struct {
		name   string
		frozen []bool
		layer  int
	}{
		{"all trained", nil, 0},
		{"layer 0 frozen", []bool{true, false}, 1},
	} {
		floor := m.trainFloor(tc.frozen)
		if floor != tc.layer {
			t.Fatalf("%s: trainFloor = %d, want %d", tc.name, floor, tc.layer)
		}
		gradsOf(m, s, floor)
		l := m.Layers[tc.layer]
		grads := []tensor.Vector{l.GradW.Data, l.GradB}
		for pi, p := range []tensor.Vector{l.W.Data, l.B} {
			analytic := grads[pi].Clone()
			const h = 1e-6
			for i := 0; i < len(p); i += 7 { // sample a subset
				orig := p[i]
				p[i] = orig + h
				lossPlus := evalLoss(m, s)
				p[i] = orig - h
				lossMinus := evalLoss(m, s)
				p[i] = orig
				numeric := (lossPlus - lossMinus) / (2 * h)
				if math.Abs(numeric-analytic[i]) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("%s: layer %d param %d[%d]: analytic %v numeric %v",
						tc.name, tc.layer, pi, i, analytic[i], numeric)
				}
			}
		}
		for li := 0; li < tc.layer; li++ {
			for _, g := range []tensor.Vector{m.Layers[li].GradW.Data, m.Layers[li].GradB} {
				for i, v := range g {
					if v != 0 {
						t.Fatalf("%s: layer %d below the floor got gradient %v at %d", tc.name, li, v, i)
					}
				}
			}
		}
	}
}

func evalLoss(m *Model, s Sample) float64 {
	logits := logitsOf(m, s.X)
	probs := tensor.NewVector(len(logits))
	tensor.Softmax(probs, logits)
	p := probs[s.Label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// meanLoss is the mean cross-entropy of m over samples (0 for none) — the
// loss Evaluate used to return beside the accuracy.
func meanLoss(m *Model, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		total += evalLoss(m, s)
	}
	return total / float64(len(samples))
}

// Train and Evaluate borrow their minibatch scratch from one free list
// shared by every model. Several goroutines each train their own model
// while one model is evaluated and, at the same time, marshalled — the
// pattern of dist.Server's background holdout evaluation. Every result
// must be what the same call gives alone; run with -race it also shows
// that no two calls share scratch.
func TestConcurrentTrainEvaluateMarshal(t *testing.T) {
	samples := makeBlobs(rand.New(rand.NewSource(17)), 90, 8, 4, 2.0)
	cfg := TrainConfig{Epochs: 2, BatchSize: 7, LR: 0.1, GradClip: 5}
	const trainers = 4
	base := make([]*Model, trainers)
	want := make([]tensor.Vector, trainers)
	for i := range base {
		base[i] = testModel(t, allArchNames()[i%len(allArchNames())])
		m := base[i].Clone()
		cfg.Seed = int64(i)
		if _, err := m.Train(samples, cfg); err != nil {
			t.Fatal(err)
		}
		want[i] = m.Parameters()
	}
	global := testModel(t, "resnet50")
	wantAcc := global.Evaluate(samples)
	wantBlob, err := global.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range base {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, cfg := base[i].Clone(), cfg
			cfg.Seed = int64(i)
			for rep := 0; rep < 3; rep++ {
				if err := m.SetParameters(base[i].Parameters()); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Train(samples, cfg); err != nil {
					t.Error(err)
					return
				}
				for j, v := range m.Parameters() {
					if math.Float64bits(v) != math.Float64bits(want[i][j]) {
						t.Errorf("trainer %d: parameter %d is %v, alone %v", i, j, v, want[i][j])
						return
					}
				}
			}
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 5; rep++ {
			if acc := global.Evaluate(samples); acc != wantAcc {
				t.Errorf("Evaluate gave %v, alone %v", acc, wantAcc)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for rep := 0; rep < 5; rep++ {
			blob, err := global.MarshalBinary()
			if err != nil || !bytes.Equal(blob, wantBlob) {
				t.Errorf("MarshalBinary changed while evaluating (err %v)", err)
				return
			}
		}
	}()
	wg.Wait()
}
