package opt_test

import (
	"bytes"
	"math"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/opt"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// clientRound is a dist-loopback-shaped client round: resnet50 (12,020
// parameters) from its seeded initialization, one epoch of batch 16 at
// learning rate 0.1 on the first eight samples of an openimage shard.
type clientRound struct {
	model                  *nn.Model
	before, delta, applied tensor.Vector
	codes                  []int16
	shard, localTest       []nn.Sample
}

func newClientRound(tb testing.TB, client int) *clientRound {
	tb.Helper()
	fed, err := data.Generate("openimage", data.GenerateConfig{Clients: 4, Alpha: 0.1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	model, err := nn.NewModel("resnet50", fed.Profile.Dim, fed.Profile.Classes, rngstate.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	n := model.NumParams()
	shard := fed.Train[client%len(fed.Train)]
	return &clientRound{
		model: model, before: model.Parameters().Clone(),
		delta: tensor.NewVector(n), applied: tensor.NewVector(n), codes: make([]int16, n),
		shard: shard[:min(8, len(shard))], localTest: fed.LocalTest[client%len(fed.LocalTest)],
	}
}

// train runs the round under tech and returns its update, with the grid
// recorded into codes when it is not nil.
func (r *clientRound) train(tb testing.TB, tech opt.Technique, seed int64, codes []int16) (tensor.Vector, opt.Grid) {
	tb.Helper()
	tc := nn.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, GradClip: fl.GradClip, Seed: seed}
	lt, grid, err := fl.TrainLocal(r.model, r.before, r.delta, r.applied, r.shard, r.localTest, tech, tc, rngstate.New(seed), codes)
	if err != nil {
		tb.Fatal(err)
	}
	return lt.Delta, grid
}

// TestClientUpdateBytesMatchOracle trains a dist-loopback-shaped client
// round (resnet50 on an eight-sample openimage shard) with fl.TrainLocal
// recording the grid, as floatd's client does, under every technique, and
// holds the update it encodes to the oracle encoder's bytes over the same
// floats at wire widths 2, 4, 8, 16 and 32. The 8-bit techniques must take
// the grid path. An update with a NaN or an infinite entry records no grid
// and encodes to the oracle's bytes through the float path.
func TestClientUpdateBytesMatchOracle(t *testing.T) {
	wires := []int{2, 4, 8, 16, 32}
	check := func(name string, delta tensor.Vector, grid opt.Grid) {
		t.Helper()
		for _, wire := range wires {
			got, err := opt.AppendCompressGrid(nil, delta, grid, wire)
			if err != nil {
				t.Fatal(err)
			}
			want, err := opt.OracleAppendCompressUpdate(nil, delta, wire)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, wire %d: the client encodes %d bytes that differ from the oracle's %d",
					name, wire, len(got), len(want))
			}
		}
	}
	for i, tech := range opt.All() {
		r := newClientRound(t, i)
		delta, grid := r.train(t, tech, int64(i), r.codes)
		if q := tech.Effects().QuantBits; (q > 0 && q <= 8) != (grid.Codes != nil) {
			t.Fatalf("%v (%d-bit): grid recorded %v", tech, q, grid.Codes != nil)
		}
		check(tech.String(), delta, grid)

		if tech != opt.TechNone {
			continue
		}
		// The unquantized delta, with one non-finite entry, quantized at
		// 8 bits: no grid, and the oracle's bytes.
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			v := delta.Clone()
			v[len(v)/2] = bad
			g := opt.QuantizeGrid(v, 8, rngstate.New(7), r.codes)
			if g.Codes != nil {
				t.Fatalf("an update with a %v entry recorded a grid", bad)
			}
			check("quant8 with a non-finite entry", v, g)
		}
	}
}

// BenchmarkUpdatePath times one dist-loopback-shaped update (a trained
// resnet50 delta, 12,020 entries) quantized at 8 bits and encoded at 16:
// quantize+encode through the float path (Quantize, AppendCompressUpdate)
// and through the grid path (QuantizeGrid, AppendCompressGrid), as
// floatd's client does; then the decode floatd's server does.
func BenchmarkUpdatePath(b *testing.B) {
	r := newClientRound(b, 0)
	delta, _ := r.train(b, opt.TechNone, 1, nil)
	orig := delta.Clone()
	v := orig.Clone()
	src := rngstate.New(2)
	var buf []byte
	b.Run("quantize+encode/float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(v, orig)
			opt.Quantize(v, 8, src)
			buf, _ = opt.AppendCompressUpdate(buf[:0], v, 16)
		}
	})
	b.Run("quantize+encode/grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(v, orig)
			g := opt.QuantizeGrid(v, 8, src, r.codes)
			buf, _ = opt.AppendCompressGrid(buf[:0], v, g, 16)
		}
	})
	copy(v, orig)
	blob, err := opt.AppendCompressGrid(nil, v, opt.QuantizeGrid(v, 8, src, r.codes), 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := opt.DecompressUpdateInto(v, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
