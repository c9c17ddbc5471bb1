package data

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"floatfl/internal/rngstate"
)

func TestLookupProfile(t *testing.T) {
	for _, name := range []string{"femnist", "cifar10", "openimage", "speech", "emnist"} {
		p, err := LookupProfile(name)
		if err != nil {
			t.Fatalf("LookupProfile(%s): %v", name, err)
		}
		if p.Dim <= 0 || p.Classes < 2 || p.Sep <= 0 || p.Noise <= 0 {
			t.Fatalf("profile %s malformed: %+v", name, p)
		}
	}
	if _, err := LookupProfile("imagenet"); err == nil {
		t.Fatal("LookupProfile accepted unknown dataset")
	}
}

func TestSampleGammaPositive(t *testing.T) {
	rng := rngstate.New(1)
	for _, shape := range []float64{0.01, 0.1, 0.5, 1, 2, 10} {
		for i := 0; i < 200; i++ {
			g := sampleGamma(shape, rng)
			if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("sampleGamma(%v) produced %v", shape, g)
			}
		}
	}
}

func TestSampleGammaMean(t *testing.T) {
	// E[Gamma(shape,1)] = shape. Check within sampling error.
	rng := rngstate.New(2)
	for _, shape := range []float64{0.5, 2, 5} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += sampleGamma(shape, rng)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.1*shape {
			t.Fatalf("Gamma(%v) sample mean %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestDirichletSimplex(t *testing.T) {
	rng := rngstate.New(3)
	for _, alpha := range []float64{0.01, 0.1, 1, 100} {
		p := SampleDirichlet(10, alpha, rng)
		var sum float64
		for _, x := range p {
			if x < 0 {
				t.Fatalf("Dirichlet(%v) produced negative mass %v", alpha, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet(%v) sums to %v", alpha, sum)
		}
	}
	if SampleDirichlet(0, 1, rng) != nil {
		t.Fatal("Dirichlet with k=0 should return nil")
	}
}

func TestDirichletConcentrationControlsSkew(t *testing.T) {
	rng := rngstate.New(4)
	maxMass := func(alpha float64) float64 {
		var total float64
		for i := 0; i < 200; i++ {
			p := SampleDirichlet(10, alpha, rng)
			m := 0.0
			for _, x := range p {
				if x > m {
					m = x
				}
			}
			total += m
		}
		return total / 200
	}
	low, high := maxMass(0.05), maxMass(100)
	if low <= high {
		t.Fatalf("small alpha should concentrate mass: max-mass alpha=0.05 %v vs alpha=100 %v", low, high)
	}
	if low < 0.6 {
		t.Fatalf("alpha=0.05 should be near one-hot, got mean max mass %v", low)
	}
	if high > 0.2 {
		t.Fatalf("alpha=100 should be near uniform, got mean max mass %v", high)
	}
}

func TestGenerateShapes(t *testing.T) {
	fed, err := Generate("femnist", GenerateConfig{Clients: 25, Alpha: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Train) != 25 || len(fed.LocalTest) != 25 {
		t.Fatalf("wrong client count: %d train, %d test", len(fed.Train), len(fed.LocalTest))
	}
	if len(fed.GlobalTest) != fed.Profile.TestSamples {
		t.Fatalf("global test size %d, want %d", len(fed.GlobalTest), fed.Profile.TestSamples)
	}
	for i, shard := range fed.Train {
		if len(shard) < 8 {
			t.Fatalf("client %d shard too small: %d", i, len(shard))
		}
		for _, s := range shard {
			if len(s.X) != fed.Profile.Dim {
				t.Fatalf("sample dim %d, want %d", len(s.X), fed.Profile.Dim)
			}
			if s.Label < 0 || s.Label >= fed.Profile.Classes {
				t.Fatalf("label %d out of range", s.Label)
			}
		}
		if len(fed.LocalTest[i]) < 2 {
			t.Fatalf("client %d local test too small", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate("nope", GenerateConfig{Clients: 5}); err == nil {
		t.Fatal("Generate accepted unknown profile")
	}
	if _, err := Generate("femnist", GenerateConfig{Clients: 0}); err == nil {
		t.Fatal("Generate accepted zero clients")
	}
}

// A NaN Alpha passes the `<= 0` default, and sampleGamma never returns
// on it: Generate and NewProvider must reject it. Each call runs on its own
// goroutine so a hang fails the test instead of stalling it. +Inf stays a
// valid concentration.
func TestNaNAlphaRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(GenerateConfig) error
	}{
		{"Generate", func(c GenerateConfig) error { _, err := Generate("femnist", c); return err }},
		{"NewProvider", func(c GenerateConfig) error { _, err := NewProvider("femnist", c); return err }},
	} {
		for _, alpha := range []float64{math.NaN(), math.Inf(1)} {
			done := make(chan error, 1)
			go func() { done <- tc.call(GenerateConfig{Clients: 4, Alpha: alpha, Seed: 1}) }()
			select {
			case err := <-done:
				if (err != nil) != math.IsNaN(alpha) {
					t.Errorf("%s(Alpha=%v) error = %v", tc.name, alpha, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s(Alpha=%v) did not return within 5s", tc.name, alpha)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("cifar10", GenerateConfig{Clients: 10, Alpha: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("cifar10", GenerateConfig{Clients: 10, Alpha: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train {
		if len(a.Train[i]) != len(b.Train[i]) {
			t.Fatal("shard sizes differ under identical seeds")
		}
		for j := range a.Train[i] {
			if a.Train[i][j].Label != b.Train[i][j].Label ||
				a.Train[i][j].X[0] != b.Train[i][j].X[0] {
				t.Fatal("samples differ under identical seeds")
			}
		}
	}
}

func TestAlphaControlsClientSkew(t *testing.T) {
	skew := func(alpha float64) float64 {
		fed, err := Generate("femnist", GenerateConfig{Clients: 30, Alpha: alpha, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, shard := range fed.Train {
			total += skewIndex(shard, fed.Profile.Classes)
		}
		return total / float64(len(fed.Train))
	}
	nonIID, iid := skew(0.05), skew(100)
	if nonIID <= iid {
		t.Fatalf("alpha=0.05 skew %v should exceed alpha=100 skew %v", nonIID, iid)
	}
	if nonIID < 0.6 {
		t.Fatalf("alpha=0.05 shards should be highly skewed, got %v", nonIID)
	}
}

func TestSkewIndexBounds(t *testing.T) {
	fed, err := Generate("femnist", GenerateConfig{Clients: 10, Alpha: 0.05, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range fed.Train {
		s := skewIndex(shard, fed.Profile.Classes)
		if s < 0 || s > 1.0000001 {
			t.Fatalf("SkewIndex out of [0,1]: %v", s)
		}
	}
	if skewIndex(nil, 10) != 0 {
		t.Fatal("SkewIndex of empty shard should be 0")
	}
}

func TestLabelHistogram(t *testing.T) {
	fed, err := Generate("speech", GenerateConfig{Clients: 5, Alpha: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h := LabelHistogram(fed.Train[0], fed.Profile.Classes)
	sum := 0
	for _, c := range h {
		sum += c
	}
	if sum != len(fed.Train[0]) {
		t.Fatalf("histogram sums to %d, want %d", sum, len(fed.Train[0]))
	}
}

// Property: any Dirichlet draw is a valid probability vector.
func TestDirichletPropertyQuick(t *testing.T) {
	f := func(seed int64, kRaw, aRaw uint8) bool {
		k := 1 + int(kRaw)%20
		alpha := 0.01 + float64(aRaw)/25.5 // 0.01 .. ~10
		rng := rngstate.New(seed)
		p := SampleDirichlet(k, alpha, rng)
		if len(p) != k {
			return false
		}
		var sum float64
		for _, x := range p {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalTestBalanced(t *testing.T) {
	fed, err := Generate("cifar10", GenerateConfig{Clients: 5, Alpha: 0.1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	h := LabelHistogram(fed.GlobalTest, fed.Profile.Classes)
	min, max := h[0], h[0]
	for _, c := range h {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("global test not class-balanced: %v", h)
	}
}
