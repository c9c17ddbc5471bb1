// Package vfl implements Vertical Federated Learning, the non-horizontal
// setting Section 7 of the paper argues FLOAT extends to "without needing
// structural adjustments". In VFL a fixed set of parties holds disjoint
// *feature* slices of the same samples; one coordinator holds the labels
// and the top model. Each training step the parties run their bottom
// models forward, ship embeddings to the coordinator, receive embedding
// gradients back, and update locally — so every party is on the critical
// path of every step, and a single resource-starved party stalls the whole
// federation. That makes VFL an even stronger fit for per-party adaptive
// acceleration than horizontal FL, which is exactly what this package
// demonstrates: the same fl.Controller (FLOAT, heuristic, static, none)
// decides each party's technique each round.
package vfl

import (
	"fmt"
	"math/rand"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// SplitDataset is a vertically partitioned dataset: every party sees all
// samples but only its own feature columns; labels live with the
// coordinator.
type SplitDataset struct {
	// Features[p][i] is party p's feature slice of sample i.
	Features [][]tensor.Vector
	Labels   []int
	// TestFeatures/TestLabels form the held-out evaluation split.
	TestFeatures [][]tensor.Vector
	TestLabels   []int
	// Dims[p] is party p's feature dimensionality.
	Dims    []int
	Classes int
}

// Split vertically partitions a generated dataset profile across parties.
// The profile's feature dimensions are divided contiguously; parties
// receive at least one column each.
func Split(profileName string, parties, samples, testSamples int, seed int64) (*SplitDataset, error) {
	p, err := data.LookupProfile(profileName)
	if err != nil {
		return nil, err
	}
	if parties < 2 {
		return nil, fmt.Errorf("vfl: need at least 2 parties, got %d", parties)
	}
	if parties > p.Dim {
		return nil, fmt.Errorf("vfl: %d parties cannot split %d features", parties, p.Dim)
	}
	if samples <= 0 || testSamples <= 0 {
		return nil, fmt.Errorf("vfl: non-positive sample counts %d/%d", samples, testSamples)
	}
	// Reuse the horizontal generator with a single "client" so the class
	// geometry matches the named profile, then slice features per party.
	fed, err := data.Generate(profileName, data.GenerateConfig{Clients: 1, Alpha: 100, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rngstate.New(seed + 1))
	draw := func(n int) ([]tensor.Vector, []int) {
		xs := make([]tensor.Vector, n)
		ys := make([]int, n)
		pool := append(append([]nn.Sample(nil), fed.Train[0]...), fed.GlobalTest...)
		for i := 0; i < n; i++ {
			s := pool[rng.Intn(len(pool))]
			xs[i] = s.X
			ys[i] = s.Label
		}
		return xs, ys
	}
	trainX, trainY := draw(samples)
	testX, testY := draw(testSamples)

	ds := &SplitDataset{Classes: p.Classes, Labels: trainY, TestLabels: testY}
	ds.Dims = splitDims(p.Dim, parties)
	slice := func(xs []tensor.Vector) [][]tensor.Vector {
		out := make([][]tensor.Vector, parties)
		for pi := range out {
			out[pi] = make([]tensor.Vector, len(xs))
		}
		for i, x := range xs {
			off := 0
			for pi, d := range ds.Dims {
				out[pi][i] = x[off : off+d]
				off += d
			}
		}
		return out
	}
	ds.Features = slice(trainX)
	ds.TestFeatures = slice(testX)
	return ds, nil
}

func splitDims(dim, parties int) []int {
	base := dim / parties
	rem := dim % parties
	out := make([]int, parties)
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Party is one feature-holding participant: a bottom model mapping its
// feature slice to an embedding, plus the simulated device it runs on.
type Party struct {
	ID     int
	Bottom *nn.Dense
	Device *device.Client
}

// Coordinator holds the labels and the top model.
type Coordinator struct {
	Top *nn.Dense
}

// Config tunes a VFL training run.
type Config struct {
	EmbeddingDim int
	Rounds       int
	BatchSize    int
	LR           float64
	// StepsPerRound is the number of mini-batch steps per communication
	// round (each step exchanges embeddings and gradients).
	StepsPerRound int
	// DeadlineSec bounds each party's per-round time; 0 auto-derives.
	DeadlineSec float64
	Seed        int64
}

func (c Config) withDefaults() Config {
	if c.EmbeddingDim <= 0 {
		c.EmbeddingDim = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.LR <= 0 {
		c.LR = 0.1
	}
	if c.StepsPerRound <= 0 {
		c.StepsPerRound = 4
	}
	return c
}

// Result summarizes a VFL run.
type Result struct {
	Controller string
	// TestAccHistory is the coordinator's test accuracy per round.
	TestAccHistory []float64
	FinalTestAcc   float64
	// PartyDrops[p] counts the rounds party p missed its deadline (its
	// embeddings were zero-filled for the whole round).
	PartyDrops []int
	TotalDrops int
	// WallClockSeconds accumulates per-round maxima across parties.
	WallClockSeconds float64
	// WastedComputeHours counts compute spent by parties whose embeddings
	// were dropped.
	WastedComputeHours float64
}
