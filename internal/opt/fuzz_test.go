package opt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// pruneSmallestBySort is PruneSmallest as it was before its threshold came
// from a quickselect — the body verbatim, sorting a copy — kept as the
// oracle FuzzPruneSmallest holds the O(n) selection to.
func pruneSmallestBySort(v tensor.Vector, frac float64) {
	if frac <= 0 || len(v) == 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	k := int(math.Round(frac * float64(len(v))))
	if k <= 0 {
		return
	}
	if k >= len(v) {
		v.Zero()
		return
	}
	mags := make([]float64, len(v))
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	sort.Float64s(mags)
	threshold := mags[k-1]
	zeroed := 0
	// First pass: zero strictly-below-threshold entries.
	for i, x := range v {
		if math.Abs(x) < threshold {
			v[i] = 0
			zeroed++
		}
	}
	// Second pass: zero at-threshold entries until exactly k are zeroed
	// (ties at the threshold would otherwise over- or under-prune).
	for i, x := range v {
		if zeroed >= k {
			break
		}
		if x != 0 && math.Abs(x) == threshold {
			v[i] = 0
			zeroed++
		}
	}
}

// FuzzPruneSmallest holds PruneSmallest to the sort-based oracle bit for
// bit: the input bytes are read as little-endian float64s (any bits — ties,
// ±0, subnormals, ±Inf, NaN), or, with fewer than eight bytes, as a run of
// small integers full of ties.
func FuzzPruneSmallest(f *testing.F) {
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	inf, nan := math.Inf(1), math.NaN()
	f.Add(floats(0.1, -5, 0.2, 4, -0.05, 3), 0.5)
	f.Add(floats(1, 1, 1, 1, -1, -1, 2, 2), 0.5)                    // ties at the threshold
	f.Add(floats(0, math.Copysign(0, -1), 0, 1, -2, 0), 0.5)        // ±0
	f.Add(floats(inf, -inf, 1, -1, inf, 0.5, -inf), 0.6)            // ±Inf
	f.Add(floats(nan, 1, nan, -3, 2, nan, 0, -nan), 0.25)           // NaN below the threshold
	f.Add(floats(nan, nan, nan, 1, 2), 0.7)                         // NaN at the threshold
	f.Add(floats(5e-324, -5e-324, math.MaxFloat64, 0, 1e-300), 0.4) // subnormals
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2}, 0.3)                         // small integers
	f.Fuzz(func(t *testing.T, raw []byte, frac float64) {
		v := make(tensor.Vector, 0, len(raw)/8)
		for len(raw) >= 8 {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		for _, b := range raw {
			v = append(v, float64(b%4)-1)
		}
		want := slices.Clone(v)
		pruneSmallestBySort(want, frac)
		PruneSmallest(v, frac)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("frac %v: entry %d is %v, the sort-based oracle gives %v\ngot  %v\nwant %v",
					frac, i, v[i], want[i], v, want)
			}
		}
	})
}
