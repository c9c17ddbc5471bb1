package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"floatfl/internal/nn"
)

// digestSamples hashes every label and every feature's bits, in order.
func digestSamples(h []byte, sets ...[]nn.Sample) []byte {
	d := sha256.New()
	d.Write(h)
	var b [8]byte
	for _, set := range sets {
		binary.LittleEndian.PutUint64(b[:], uint64(len(set)))
		d.Write(b[:])
		for _, s := range set {
			binary.LittleEndian.PutUint64(b[:], uint64(s.Label))
			d.Write(b[:])
			for _, x := range s.X {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				d.Write(b[:])
			}
		}
	}
	return d.Sum(nil)
}

// TestDerivationGolden pins the bits of both derivations, recorded before
// they drew their Gaussians by block from rngstate.Source: Generate's
// single stream (centers, every shard, the global test set) and the
// Provider's per-client streams, for two profiles at a non-IID and a
// near-IID α.
func TestDerivationGolden(t *testing.T) {
	want := map[string]string{
		"femnist/0.1/generate":    "a6f8128ac8d1765e",
		"femnist/0.1/provider":    "a33133402cd1f519",
		"cifar10/100/generate":    "5a5996a0a0608b37",
		"cifar10/100/provider":    "f55ead5f8a8b2c0d",
		"openimage/0.05/generate": "ae98cc42d10bccb5",
		"openimage/0.05/provider": "d5a0945781ea2895",
	}
	for _, c := range []struct {
		profile string
		alpha   float64
		seed    int64
	}{{"femnist", 0.1, 3}, {"cifar10", 100, -9}, {"openimage", 0.05, 0}} {
		cfg := GenerateConfig{Clients: 24, Alpha: c.alpha, Seed: c.seed}
		fed, err := Generate(c.profile, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var h []byte
		for i := range fed.Train {
			h = digestSamples(h, fed.Train[i], fed.LocalTest[i])
		}
		h = digestSamples(h, fed.GlobalTest)

		pr, err := NewProvider(c.profile, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf ShardBuf
		var hp []byte
		for i := 0; i < cfg.Clients; i++ {
			s := pr.DeriveInto(i, &buf)
			hp = digestSamples(hp, s.Train, s.LocalTest)
		}
		hp = digestSamples(hp, pr.GlobalTest())

		for kind, sum := range map[string][]byte{"generate": h, "provider": hp} {
			key := fmt.Sprintf("%s/%v/%s", c.profile, c.alpha, kind)
			if got := hex.EncodeToString(sum)[:16]; got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}
