package fl

import (
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/population"
	"floatfl/internal/tensor"
)

func aggModel(t *testing.T) *nn.Model {
	t.Helper()
	m, err := nn.NewModel("mlp-small", 6, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestApplyAggregateWeightedMean(t *testing.T) {
	m := aggModel(t)
	before := m.Parameters().Clone()
	n := m.NumParams()
	d1 := tensor.NewVector(n)
	d1.Fill(1)
	d2 := tensor.NewVector(n)
	d2.Fill(3)
	// weights 1 and 3 -> mean = (1*1 + 3*3)/4 = 2.5
	ApplyAggregate(m, []tensor.Vector{d1, d2}, []float64{1, 3})
	after := m.Parameters()
	for i := range after {
		if math.Abs(after[i]-(before[i]+2.5)) > 1e-12 {
			t.Fatalf("weighted mean wrong at %d: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestApplyAggregateEmptyAndZeroWeights(t *testing.T) {
	m := aggModel(t)
	before := m.Parameters().Clone()
	ApplyAggregate(m, nil, nil)
	d := tensor.NewVector(m.NumParams())
	d.Fill(1)
	ApplyAggregate(m, []tensor.Vector{d}, []float64{0})
	after := m.Parameters()
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("empty/zero-weight aggregation modified the model")
		}
	}
}

func TestApplyAggregateDiscardsNonFinite(t *testing.T) {
	m := aggModel(t)
	before := m.Parameters().Clone()
	n := m.NumParams()

	good := tensor.NewVector(n)
	good.Fill(1)
	poisonNaN := tensor.NewVector(n)
	poisonNaN.Fill(1)
	poisonNaN[3] = math.NaN()
	poisonInf := tensor.NewVector(n)
	poisonInf.Fill(1)
	poisonInf[0] = math.Inf(1)

	// The kept prefix is what a caller may recycle: exactly the good delta.
	kept := ApplyAggregate(m,
		[]tensor.Vector{poisonNaN, good, poisonInf},
		[]float64{5, 2, 5})
	if len(kept) != 1 || &kept[0][0] != &good[0] {
		t.Fatalf("kept %d deltas, want only the finite one", len(kept))
	}
	after := m.Parameters()
	for i := range after {
		if math.IsNaN(after[i]) || math.IsInf(after[i], 0) {
			t.Fatal("poisoned delta reached the global model")
		}
		// Only the good delta should have applied, at full weight.
		if math.Abs(after[i]-(before[i]+1)) > 1e-12 {
			t.Fatalf("aggregation mixed in a discarded delta at %d", i)
		}
	}
}

func TestApplyAggregateAllPoisoned(t *testing.T) {
	m := aggModel(t)
	before := m.Parameters().Clone()
	bad := tensor.NewVector(m.NumParams())
	bad[0] = math.NaN()
	ApplyAggregate(m, []tensor.Vector{bad}, []float64{1})
	after := m.Parameters()
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("all-poisoned round should be a no-op")
		}
	}
}

func TestApplyAggregateZeroCompletedClients(t *testing.T) {
	// A round where every selected client dropped out aggregates nothing:
	// empty and nil slices must both be no-ops, not panics.
	m := aggModel(t)
	before := m.Parameters().Clone()
	ApplyAggregate(m, []tensor.Vector{}, []float64{})
	after := m.Parameters()
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("zero-completed aggregation modified the model")
		}
	}
}

func TestApplyAggregateAllZeroWeights(t *testing.T) {
	// Weights can all be zero (e.g. every completed client had an empty
	// shard); total weight 0 must not divide.
	m := aggModel(t)
	before := m.Parameters().Clone()
	n := m.NumParams()
	d1 := tensor.NewVector(n)
	d1.Fill(2)
	d2 := tensor.NewVector(n)
	d2.Fill(-3)
	ApplyAggregate(m, []tensor.Vector{d1, d2}, []float64{0, 0})
	after := m.Parameters()
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("all-zero-weight aggregation modified the model")
		}
	}
}

func TestApplyAggregateSingleClientRound(t *testing.T) {
	// One completed client: its delta applies at full strength regardless
	// of its absolute weight.
	m := aggModel(t)
	before := m.Parameters().Clone()
	d := tensor.NewVector(m.NumParams())
	d.Fill(0.25)
	ApplyAggregate(m, []tensor.Vector{d}, []float64{17})
	after := m.Parameters()
	for i := range after {
		if math.Abs(after[i]-(before[i]+0.25)) > 1e-12 {
			t.Fatalf("single-client delta not applied at full weight at %d", i)
		}
	}
}

// TestMeanShardSize: the population facade's exact eager path floors at 1 —
// no clients and all-empty shards must not reach workSpecFor as zero.
func TestMeanShardSize(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards [][]nn.Sample
		want   int
	}{
		{"empty federation", nil, 1},
		{"all-empty shards", [][]nn.Sample{{}, {}}, 1},
		{"10 and 20", [][]nn.Sample{make([]nn.Sample, 10), make([]nn.Sample, 20)}, 15},
	} {
		p, err := population.WrapEager(&data.Federation{Train: tc.shards}, make([]*device.Client, len(tc.shards)))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MeanShardSize(); got != tc.want {
			t.Fatalf("%s: mean shard = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite(tensor.Vector{1, -2, 0}) {
		t.Fatal("finite vector rejected")
	}
	if IsFinite(tensor.Vector{1, math.NaN()}) {
		t.Fatal("NaN accepted")
	}
	if IsFinite(tensor.Vector{math.Inf(-1)}) {
		t.Fatal("Inf accepted")
	}
	if !IsFinite(nil) {
		t.Fatal("empty vector should be finite")
	}
}

// isFiniteBranchy is IsFinite's body before its branch-free sums: the
// oracle it is held to.
func isFiniteBranchy(v tensor.Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestIsFiniteMatchesBranchy holds IsFinite to the branchy loop on every
// vector of length 0-9 built from finite values (±0, subnormals, the
// largest floats) with at most one non-finite entry (NaN payloads of
// either sign, ±Inf) at every position, and on ±MaxFloat64 pairs whose sum
// would overflow.
func TestIsFiniteMatchesBranchy(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -2.5, math.MaxFloat64, -math.MaxFloat64}
	bad := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
	}
	for n := 0; n <= 9; n++ {
		for k, f := range finite {
			v := make(tensor.Vector, n)
			for i := range v {
				v[i] = finite[(k+i)%len(finite)]
			}
			if got, want := IsFinite(v), isFiniteBranchy(v); got != want {
				t.Fatalf("%v: IsFinite %v, want %v", v, got, want)
			}
			for at := 0; at < n; at++ {
				for _, b := range bad {
					v[at] = b
					if got, want := IsFinite(v), isFiniteBranchy(v); got != want {
						t.Fatalf("%v: IsFinite %v, want %v", v, got, want)
					}
				}
				v[at] = f
			}
		}
	}
}

// BenchmarkIsFinite times the check on a dist-loopback-sized update
// (12,020 parameters), branch-free and branchy.
func BenchmarkIsFinite(b *testing.B) {
	v := tensor.NewVector(12020)
	tensor.RandnInto(v, 0.01, rand.New(rand.NewSource(1)))
	for _, bc := range []struct {
		name string
		f    func(tensor.Vector) bool
	}{{"sums", IsFinite}, {"branchy", isFiniteBranchy}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !bc.f(v) {
					b.Fatal("finite update rejected")
				}
			}
		})
	}
}
