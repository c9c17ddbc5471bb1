package data

import (
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

func sampleEqual(a, b nn.Sample) bool {
	if a.Label != b.Label || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] { // bit-exact, not approximate
			return false
		}
	}
	return true
}

func shardEqual(a, b ClientShard) bool {
	if len(a.Train) != len(b.Train) || len(a.LocalTest) != len(b.LocalTest) {
		return false
	}
	for i := range a.Train {
		if !sampleEqual(a.Train[i], b.Train[i]) {
			return false
		}
	}
	for i := range a.LocalTest {
		if !sampleEqual(a.LocalTest[i], b.LocalTest[i]) {
			return false
		}
	}
	return true
}

// TestDeriveClientOrderIndependent is the lazy-population correctness
// contract: for every dataset profile, deriving client i equals the eagerly
// Materialized federation's client i bit-for-bit, no matter in which order
// clients are derived — including re-derivation, which is what a miss after
// an eviction does.
func TestDeriveClientOrderIndependent(t *testing.T) {
	const clients = 12
	for _, name := range profileNames() {
		t.Run(name, func(t *testing.T) {
			cfg := GenerateConfig{Clients: clients, Alpha: 0.1, Seed: 11}

			eagerP, err := NewProvider(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fed := eagerP.Materialize()

			// Order A: forward. Order B: a scattered order with repeats.
			lazy, err := NewProvider(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			orderA := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			orderB := []int{7, 2, 11, 2, 0, 9, 7, 4, 1, 10, 3, 8, 5, 6, 0, 11}
			for _, order := range [][]int{orderB, orderA} {
				for _, id := range order {
					got := lazy.DeriveInto(id, nil)
					want := ClientShard{Train: fed.Train[id], LocalTest: fed.LocalTest[id]}
					if !shardEqual(got, want) {
						t.Fatalf("client %d: derived shard deviates from materialized federation", id)
					}
				}
			}
			if len(lazy.GlobalTest()) != len(fed.GlobalTest) {
				t.Fatalf("global test length %d, want %d", len(lazy.GlobalTest()), len(fed.GlobalTest))
			}
			for i := range fed.GlobalTest {
				if !sampleEqual(lazy.GlobalTest()[i], fed.GlobalTest[i]) {
					t.Fatalf("global test sample %d deviates", i)
				}
			}
		})
	}
}

// TestDeriveShardSizeMatchesDerivation pins that the cheap size-only
// derivation agrees with the full one (they share a stream prefix, so a
// drift here means the streams were reordered).
func TestDeriveShardSizeMatchesDerivation(t *testing.T) {
	p, err := NewProvider("femnist", GenerateConfig{Clients: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf ShardBuf
	for id := 0; id < 50; id += 7 {
		if got, want := p.ShardSize(id, &buf), len(p.DeriveInto(id, nil).Train); got != want {
			t.Fatalf("client %d: ShardSize %d, full derivation %d", id, got, want)
		}
	}
}

// TestMeanShardSizeSampled covers the provider-statistics path AutoDeadline
// and workSpecFor depend on: exact within the cap, sampled and positive
// beyond it, and stable across calls.
func TestMeanShardSizeSampled(t *testing.T) {
	p, err := NewProvider("femnist", GenerateConfig{Clients: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exact := p.MeanShardSize(200)
	if exact <= 0 {
		t.Fatalf("exact mean shard size %d, want positive", exact)
	}
	sampled := p.MeanShardSize(32)
	if sampled <= 0 {
		t.Fatalf("sampled mean shard size %d, want positive", sampled)
	}
	if again := p.MeanShardSize(32); again != sampled {
		t.Fatalf("sampled mean not deterministic: %d then %d", sampled, again)
	}
	// The lognormal volume distribution concentrates near the profile mean;
	// a 32-client stride sample must land in the same ballpark.
	if sampled < exact/2 || sampled > exact*2 {
		t.Fatalf("sampled mean %d implausibly far from exact %d", sampled, exact)
	}
}

// deriveClientPerSample is the derivation as it was before the slab: two
// vectors per sample — a clone of the class center and a throw-away noise
// vector added to it, drawn one value at a time through rand.Rand. It
// lives on as the oracle the slab derivation, with its block draws, must
// match bit for bit, draw for draw.
func deriveClientPerSample(p Profile, cfg GenerateConfig, centers []tensor.Vector, id int) ClientShard {
	cfg = normalizeGenerate(cfg)
	src := rngstate.New(ClientSeed(cfg.Seed, int64(id)))
	rng := rand.New(src)
	labelDist := SampleDirichlet(p.Classes, cfg.Alpha, src)
	n := sampleClientVolume(p.MeanSamplesPerClient, src)
	nTest := int(math.Round(float64(n) * localTestFraction))
	if nTest < 2 {
		nTest = 2
	}
	sample := func() nn.Sample {
		class := sampleCategorical(labelDist, src)
		x := centers[class].Clone()
		noise := tensor.NewVector(p.Dim)
		tensor.RandnInto(noise, p.Noise, rng)
		x.AddScaled(1, noise)
		return nn.Sample{X: x, Label: class}
	}
	var shard ClientShard
	for s := 0; s < n; s++ {
		shard.Train = append(shard.Train, sample())
	}
	for s := 0; s < nTest; s++ {
		shard.LocalTest = append(shard.LocalTest, sample())
	}
	return shard
}

// TestSlabDerivationMatchesPerSample: one slab per shard is an allocation
// strategy, not a change of value — every profile, several clients, every
// float bit-equal to the per-sample derivation — and the views carved from
// the shared backing arrays cannot grow into one another.
func TestSlabDerivationMatchesPerSample(t *testing.T) {
	for _, name := range profileNames() {
		p, err := LookupProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := GenerateConfig{Clients: 40, Alpha: 0.1, Seed: 23}
		centers := DeriveCenters(p, cfg.Seed)
		for _, id := range []int{0, 7, 39} {
			got := DeriveClient(p, cfg, centers, id)
			if want := deriveClientPerSample(p, cfg, centers, id); !shardEqual(got, want) {
				t.Fatalf("%s client %d: slab derivation deviates from the per-sample derivation", name, id)
			}
			if cap(got.Train) != len(got.Train) {
				t.Fatalf("%s client %d: Train has cap %d > len %d: an append would overwrite LocalTest",
					name, id, cap(got.Train), len(got.Train))
			}
			for i, s := range append(append([]nn.Sample(nil), got.Train...), got.LocalTest...) {
				if cap(s.X) != len(s.X) {
					t.Fatalf("%s client %d sample %d: X has cap %d > len %d: an append would overwrite the next sample",
						name, id, i, cap(s.X), len(s.X))
				}
			}
		}
	}
}

// TestDeriveIntoWarmAllocs: once a buffer has held the largest shard it
// will see, deriving into it allocates nothing — not the samples, the slab,
// the label distribution or the stream.
func TestDeriveIntoWarmAllocs(t *testing.T) {
	pr, err := NewProvider("femnist", GenerateConfig{Clients: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf ShardBuf
	sweep := func() {
		for id := 0; id < 64; id++ {
			pr.DeriveInto(id, &buf)
		}
	}
	sweep()
	// One run is a sweep over shards of every size, so an allocation in any
	// one derivation shows (AllocsPerRun truncates the per-run average).
	if allocs := testing.AllocsPerRun(4, sweep); allocs != 0 {
		t.Fatalf("a warmed sweep of 64 DeriveInto calls allocates %.0f times, want 0", allocs)
	}
}
