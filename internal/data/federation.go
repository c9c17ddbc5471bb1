package data

import (
	"fmt"
	"math"
	"math/rand"

	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// Federation is a complete federated dataset: per-client training shards, a
// shared held-out test set, and per-client local test splits (the paper
// evaluates accuracy on clients' own non-IID data because a server-side IID
// holdout is unrealistic — Section 6.1).
type Federation struct {
	Profile Profile
	// Train[i] is client i's local training set.
	Train [][]nn.Sample
	// LocalTest[i] is client i's local evaluation split, drawn from the
	// same (non-IID) label distribution as its training set.
	LocalTest [][]nn.Sample
	// GlobalTest is a class-balanced holdout used for convergence plots.
	GlobalTest []nn.Sample
	// Alpha records the Dirichlet concentration used for partitioning.
	Alpha float64
}

// GenerateConfig controls federated dataset synthesis.
type GenerateConfig struct {
	Clients int
	// Alpha is the Dirichlet concentration; <= 0 defaults to 0.1 (the
	// paper's end-to-end setting). Use >= 100 for effectively IID shards.
	Alpha float64
	Seed  int64
}

// localTestFraction of each client's samples, at least two, goes to its
// local test split.
const localTestFraction = 0.25

// Generate synthesizes a federation for the named dataset profile.
func Generate(profileName string, cfg GenerateConfig) (*Federation, error) {
	p, err := LookupProfile(profileName)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: Generate requires positive client count, got %d", cfg.Clients)
	}
	if err := checkAlpha(cfg.Alpha); err != nil {
		return nil, err
	}
	alpha := cfg.Alpha
	if alpha <= 0 {
		alpha = 0.1
	}
	rng := rand.New(rngstate.New(cfg.Seed))

	centers := make([]tensor.Vector, p.Classes)
	for c := range centers {
		centers[c] = tensor.NewVector(p.Dim)
		tensor.RandnInto(centers[c], p.Sep, rng)
	}
	draw := func(class int) nn.Sample {
		x := centers[class].Clone()
		noise := tensor.NewVector(p.Dim)
		tensor.RandnInto(noise, p.Noise, rng)
		x.AddScaled(1, noise)
		return nn.Sample{X: x, Label: class}
	}

	fed := &Federation{Profile: p, Alpha: alpha}
	fed.Train = make([][]nn.Sample, cfg.Clients)
	fed.LocalTest = make([][]nn.Sample, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		labelDist := SampleDirichlet(p.Classes, alpha, rng)
		n := sampleClientVolume(p.MeanSamplesPerClient, rng)
		nTest := int(math.Round(float64(n) * localTestFraction))
		if nTest < 2 {
			nTest = 2
		}
		train := make([]nn.Sample, 0, n)
		for s := 0; s < n; s++ {
			train = append(train, draw(sampleCategorical(labelDist, rng)))
		}
		test := make([]nn.Sample, 0, nTest)
		for s := 0; s < nTest; s++ {
			test = append(test, draw(sampleCategorical(labelDist, rng)))
		}
		fed.Train[i] = train
		fed.LocalTest[i] = test
	}

	fed.GlobalTest = make([]nn.Sample, 0, p.TestSamples)
	for s := 0; s < p.TestSamples; s++ {
		fed.GlobalTest = append(fed.GlobalTest, draw(s%p.Classes))
	}
	return fed, nil
}

// sampleClientVolume draws a per-client sample count from a lognormal
// distribution around the profile mean (sigma 0.45 gives the skew observed
// in FedScale client populations), floored at 8 samples.
func sampleClientVolume(mean int, rng *rand.Rand) int {
	const sigma = 0.45
	mu := math.Log(float64(mean)) - sigma*sigma/2
	n := int(math.Round(math.Exp(mu + float64(sigma*rng.NormFloat64()))))
	if n < 8 {
		n = 8
	}
	return n
}

// LabelHistogram returns the per-class sample counts of a shard; used by
// tests and by statistical-utility computations (Oort).
func LabelHistogram(samples []nn.Sample, classes int) []int {
	h := make([]int, classes)
	for _, s := range samples {
		if s.Label >= 0 && s.Label < classes {
			h[s.Label]++
		}
	}
	return h
}

// SkewIndex summarizes how non-IID a shard is: 0 means uniform over
// classes, 1 means single-class. It is the normalized L1 distance between
// the shard's label distribution and uniform.
func SkewIndex(samples []nn.Sample, classes int) float64 {
	if len(samples) == 0 || classes <= 1 {
		return 0
	}
	h := LabelHistogram(samples, classes)
	var l1 float64
	for _, c := range h {
		l1 += math.Abs(float64(c)/float64(len(samples)) - 1/float64(classes))
	}
	// Max possible L1 distance is 2*(1 - 1/classes).
	return l1 / (2 * (1 - 1/float64(classes)))
}
