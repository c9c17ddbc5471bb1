package data

import (
	"fmt"
	"math"

	"floatfl/internal/detmath"
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
	src := rngstate.New(cfg.Seed)

	centers := make([]tensor.Vector, p.Classes)
	for c := range centers {
		centers[c] = tensor.NewVector(p.Dim)
		normalInto(centers[c], p.Sep, src)
	}

	// One stream, drawn in deriveInto's order, with backing of its own for
	// every shard.
	fed := &Federation{Profile: p, Alpha: alpha}
	fed.Train = make([][]nn.Sample, cfg.Clients)
	fed.LocalTest = make([][]nn.Sample, cfg.Clients)
	labelDist := make([]float64, p.Classes)
	for i := 0; i < cfg.Clients; i++ {
		sampleDirichletInto(labelDist, alpha, src)
		n := sampleClientVolume(p.MeanSamplesPerClient, src)
		shard := drawShard(p, centers, n, labelDist, src, &ShardBuf{})
		fed.Train[i], fed.LocalTest[i] = shard.Train, shard.LocalTest
	}
	fed.GlobalTest = deriveSamples(p, centers, p.TestSamples, func(s int) int { return s % p.Classes }, src, &ShardBuf{})
	return fed, nil
}

// normalInto fills v with N(0, sigma²) samples drawn from src by block:
// the values tensor.RandnInto draws from src one at a time.
func normalInto(v tensor.Vector, sigma float64, src *rngstate.Source) {
	src.NormFloat64s(v)
	for i, g := range v {
		v[i] = g * sigma
	}
}

// sampleClientVolume draws a per-client sample count from a lognormal
// distribution around the profile mean (sigma 0.45 gives the skew observed
// in FedScale client populations), floored at 8 samples.
func sampleClientVolume(mean int, rng *rngstate.Source) int {
	const sigma = 0.45
	mu := math.Log(float64(mean)) - sigma*sigma/2
	n := int(math.Round(detmath.Exp(mu + float64(sigma*rng.NormFloat64()))))
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
