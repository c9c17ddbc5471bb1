package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"floatfl/internal/tensor"
)

// FuzzDecompressUpdate hardens the wire decoder against malformed input:
// whatever bytes arrive, it must return an error or a well-formed vector —
// never panic, never hang — and agree with the oracle decoder: an error
// exactly when the oracle errs, with the same message (and so the same
// offset), and otherwise the same bits for every value.
func FuzzDecompressUpdate(f *testing.F) {
	// Seed with valid streams of several shapes.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 128} {
		v := tensor.NewVector(n)
		tensor.RandnInto(v, 1, rng)
		if n > 2 {
			PruneSmallest(v, 0.5)
		}
		for _, bits := range []int{8, 16, 32} {
			blob, err := CompressUpdate(v, bits)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			if len(blob) > headerLen+3 {
				f.Add(blob[:len(blob)-3]) // a varint cut short near the tail
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(hugeZeroRun())
	hdr := func(count uint32, body ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, count)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
		return append(append(b, 16), body...)
	}
	f.Add(hdr(4, 0x80, 0x00, 0x81, 0x80, 0x00, 0xff, 0xff, 0x7f, 0x03, 0, 0, 0, 0))    // non-canonical varints, then a tail
	f.Add(hdr(3, 0xff, 0xff, 0xff, 0x7f, 0x05, 0, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0, 0)) // a 4-byte varint, a 2-byte zero run
	f.Add(hdr(2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))    // an overflowing varint
	f.Add(hdr(2, 0x03, 0xff, 0xff, 0x01))                                              // a 3-byte varint with fewer than 8 bytes left

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecompressUpdate(data)
		if n, _ := declaredLen(data); n > 1<<16 {
			return // past 2^16 elements the oracle's second vector would only slow the fuzzer
		}
		want, wantErr := oracleDecompressUpdate(data)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("decoder error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("value %d is %v, the oracle decodes %v", i, out[i], want[i])
			}
		}
		// Non-finite values can only come from a corrupt scale field; the
		// decoder passes them through as data, which is acceptable — the
		// aggregation layer rejects them — but they must not crash anything
		// here.
	})
}

// oracleDecompressUpdate is DecompressUpdate over the oracle decoder.
func oracleDecompressUpdate(data []byte) (tensor.Vector, error) {
	count, err := declaredLen(data)
	if err != nil {
		return nil, err
	}
	if count > MaxDecodedLen {
		return nil, fmt.Errorf("opt: DecompressUpdate declared length %d exceeds cap %d",
			count, MaxDecodedLen)
	}
	out := tensor.NewVector(count)
	if err := oracleDecompressUpdateInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
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
