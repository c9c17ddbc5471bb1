package nn

import (
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/tensor"
)

func deltaNorm(t *testing.T, mu float64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	samples := makeBlobs(rng, 80, 8, 4, 2.0)
	m := testModel(t, "resnet18")
	// Parameters() aliases the model; the anchor must be a frozen snapshot.
	anchor := m.Parameters().Clone()
	cfg := TrainConfig{Epochs: 3, BatchSize: 16, LR: 0.3, GradClip: 5, Seed: 9}
	if mu > 0 {
		cfg.ProxMu = mu
		cfg.ProxAnchor = anchor
	}
	if _, err := m.Train(samples, cfg); err != nil {
		t.Fatal(err)
	}
	after := m.Parameters().Clone()
	after.AddScaled(-1, anchor)
	return math.Sqrt(after.Dot(after))
}

func TestProximalTermLimitsDrift(t *testing.T) {
	free := deltaNorm(t, 0)
	constrained := deltaNorm(t, 0.5)
	if constrained >= free {
		t.Fatalf("FedProx term did not limit drift: mu=0.5 norm %v >= mu=0 norm %v",
			constrained, free)
	}
	// Monotone in mu (within the stable step-size regime:
	// lr/batch · mu·batch must stay well below 1 or the proximal pull
	// overshoots the anchor and oscillates).
	tight := deltaNorm(t, 1.5)
	if tight >= constrained {
		t.Fatalf("larger mu should constrain more: mu=1.5 norm %v >= mu=0.5 norm %v",
			tight, constrained)
	}
}

func TestProximalStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	samples := makeBlobs(rng, 150, 8, 4, 2.0)
	m := testModel(t, "resnet18")
	anchor := m.Parameters().Clone()
	accBefore := m.Evaluate(samples)
	if _, err := m.Train(samples, TrainConfig{
		Epochs: 8, BatchSize: 16, LR: 0.3, GradClip: 5, Seed: 10,
		ProxMu: 0.05, ProxAnchor: anchor,
	}); err != nil {
		t.Fatal(err)
	}
	accAfter := m.Evaluate(samples)
	if accAfter <= accBefore {
		t.Fatalf("mild proximal term prevented learning: %v -> %v", accBefore, accAfter)
	}
}

func TestProxValidation(t *testing.T) {
	m := testModel(t, "mlp-small")
	s := []Sample{{X: tensor.NewVector(8), Label: 0}}
	_, err := m.Train(s, TrainConfig{
		Epochs: 1, BatchSize: 1, LR: 0.1, ProxMu: 0.1, ProxAnchor: tensor.NewVector(3),
	})
	if err == nil {
		t.Fatal("Train accepted ProxAnchor of wrong length")
	}
}
