package fl

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"floatfl/internal/nn"
	"floatfl/internal/opt"
	"floatfl/internal/trace"
)

// trainingKey is everything of a technique that local training sees: the
// frozen-layer mask TrainLocal hands nn.Train, and the prune and quantize
// steps ApplyToUpdate runs on the delta. Two techniques with one key
// produce the same delta; they differ only in what the cost model charges.
func trainingKey(layers int, t opt.Technique) string {
	e := t.Effects()
	return fmt.Sprint(opt.FrozenLayerMask(layers, e.PartialFrac), e.QuantBits, e.PruneFrac)
}

// TestDuplicateActionsPinned pins which of the agent's actions train
// identically on each architecture. quant16 and compress share the 16-bit
// grid everywhere; FrozenLayerMask rounds 25/50/75 % of two layers to one
// frozen layer each, and 50/75 % of three layers to two. A change to the
// action space, the mask rounding or the model zoo that merges or splits
// a group fails here.
func TestDuplicateActionsPinned(t *testing.T) {
	quant := []string{"quant16", "compress"}
	want := map[string][][]string{
		"mlp-small": {quant, {"partial25", "partial50", "partial75"}},
	}
	for _, arch := range []string{"mlp-small", "resnet18", "resnet34", "resnet50", "shufflenet"} {
		spec, err := nn.LookupSpec(arch)
		if err != nil {
			t.Fatal(err)
		}
		layers := len(spec.Hidden) + 1
		byKey := map[string][]string{}
		var order []string
		for _, tech := range opt.All() {
			k := trainingKey(layers, tech)
			if byKey[k] == nil {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], tech.String())
		}
		var got [][]string
		for _, k := range order {
			if len(byKey[k]) > 1 {
				got = append(got, byKey[k])
			}
		}
		w, ok := want[arch]
		if !ok {
			if layers != 3 {
				t.Fatalf("%s has %d layers; pin its duplicate groups", arch, layers)
			}
			w = [][]string{quant, {"partial50", "partial75"}}
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s (%d layers): techniques that train identically = %v, want %v", arch, layers, got, w)
		}
	}
}

// TestDuplicateActionsTrainIdentically runs one pair of each duplicate
// kind through TrainLocal on the same shard and seed: the results match
// bit for bit, while the compute factor the device model charges differs.
func TestDuplicateActionsTrainIdentically(t *testing.T) {
	fed, _ := testSetup(t, 4, trace.ScenarioNone)
	for _, tc := range []struct {
		arch string
		a, b opt.Technique
	}{
		{"resnet18", opt.TechQuant16, opt.TechCompress},
		{"resnet18", opt.TechPartial50, opt.TechPartial75},
		{"mlp-small", opt.TechPartial25, opt.TechPartial75},
	} {
		name := fmt.Sprintf("%s/%v=%v", tc.arch, tc.a, tc.b)
		if tc.a.Effects().ComputeFactor == tc.b.Effects().ComputeFactor {
			t.Errorf("%s: both charge ComputeFactor %v", name, tc.a.Effects().ComputeFactor)
		}
		cfg := smallConfig().withDefaults()
		cfg.Arch = tc.arch
		run := func(tech opt.Technique) LocalResult {
			proto, err := nn.NewModel(cfg.Arch, fed.Profile.Dim, fed.Profile.Classes,
				rand.New(rand.NewSource(cfg.Seed)))
			if err != nil {
				t.Fatal(err)
			}
			pool := newContextPool(proto)
			pool.ensure(1, 1)
			res, err := simRound(pool.ctx(0), pool.delta(0), proto, proto.Parameters().Clone(),
				fed.Train[0], fed.LocalTest[0], tech, cfg, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			res.Delta = res.Delta.Clone()
			return res
		}
		ra, rb := run(tc.a), run(tc.b)
		if ra.Delta.MaxAbs() == 0 {
			t.Fatalf("%s: training moved no parameter", name)
		}
		for i := range ra.Delta {
			if math.Float64bits(ra.Delta[i]) != math.Float64bits(rb.Delta[i]) {
				t.Fatalf("%s: delta[%d] = %v vs %v", name, i, ra.Delta[i], rb.Delta[i])
			}
		}
		if ra.Weight != rb.Weight || ra.StatUtility != rb.StatUtility || ra.AccImprove != rb.AccImprove {
			t.Errorf("%s: results differ: %+v vs %+v", name, ra, rb)
		}
	}
}
