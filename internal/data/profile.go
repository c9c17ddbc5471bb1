// Package data generates the synthetic federated datasets that stand in
// for FEMNIST, CIFAR10, OpenImage, Google Speech Commands, and EMNIST in
// this reproduction. Each dataset profile is a seeded Gaussian
// class-cluster classification problem whose difficulty, class count, and
// per-client volume echo the original workload, partitioned across clients
// with a Dirichlet label distribution exactly as the paper's experiments
// configure (alpha = 0.01 ... 0.1 for non-IID, large alpha for IID).
package data

import "fmt"

// Profile describes one synthetic dataset family.
type Profile struct {
	Name    string
	Dim     int // feature dimensionality
	Classes int
	// Sep scales the distance between class centers; Noise is the sample
	// standard deviation around a center. Lower Sep/Noise ratio = harder.
	Sep   float64
	Noise float64
	// MeanSamplesPerClient controls per-client dataset volume (lognormal
	// spread around this mean, mirroring FedScale's skewed client sizes).
	MeanSamplesPerClient int
	// TestSamples is the size of the held-out evaluation set.
	TestSamples int
	// RefSampleBytes approximates the storage size of one real example of
	// the original dataset (input to the memory-inefficiency metric).
	RefSampleBytes int64
}

var profiles = map[string]Profile{
	// FEMNIST: 62-class handwritten characters; moderately hard, small
	// images (28x28 grayscale ≈ 784 bytes).
	"femnist": {Name: "femnist", Dim: 32, Classes: 12, Sep: 0.3, Noise: 1.0,
		MeanSamplesPerClient: 80, TestSamples: 600, RefSampleBytes: 784},
	// CIFAR10: 10-class natural images; harder than FEMNIST (32x32x3 ≈ 3 KB).
	"cifar10": {Name: "cifar10", Dim: 32, Classes: 10, Sep: 0.24, Noise: 1.0,
		MeanSamplesPerClient: 60, TestSamples: 500, RefSampleBytes: 3072},
	// OpenImage: FLOAT's "complex" workload (1.6M images, many classes).
	"openimage": {Name: "openimage", Dim: 48, Classes: 20, Sep: 0.2, Noise: 1.0,
		MeanSamplesPerClient: 120, TestSamples: 800, RefSampleBytes: 49152},
	// Google Speech Commands: converges quickly with lower resource needs
	// (the paper observes few dropouts and small FLOAT gains here).
	"speech": {Name: "speech", Dim: 24, Classes: 10, Sep: 0.55, Noise: 0.9,
		MeanSamplesPerClient: 50, TestSamples: 400, RefSampleBytes: 16000},
	// EMNIST: used by the motivation experiments (Section 4).
	"emnist": {Name: "emnist", Dim: 32, Classes: 10, Sep: 0.32, Noise: 1.0,
		MeanSamplesPerClient: 70, TestSamples: 500, RefSampleBytes: 784},
}

// LookupProfile returns the profile registered under name.
func LookupProfile(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("data: unknown dataset profile %q", name)
	}
	return p, nil
}
