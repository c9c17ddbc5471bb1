package opt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// gridCase builds an n-entry update: the fuzzer's float64s, read
// little-endian from raw, lead and recur every third entry, and Gaussians
// of standard deviation sd fill the rest.
func gridCase(raw []byte, n int, sd float64, seed int64) tensor.Vector {
	var edges []float64
	for ; len(raw) >= 8; raw = raw[8:] {
		edges = append(edges, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	rng := rand.New(rand.NewSource(seed))
	v := tensor.NewVector(n)
	for i := range v {
		if len(edges) > 0 && (i < len(edges) || i%3 == 0) {
			v[i] = edges[i%len(edges)]
		} else {
			v[i] = rng.NormFloat64() * sd
		}
	}
	return v
}

// constUniform draws the same value every time. Zero rounds every
// off-grid entry up and the largest float below one rounds every one down,
// which reaches the levels a stream reaches about once in 10¹⁴ draws: one
// past the level count, and a largest level one short of it.
type constUniform float64

func (c constUniform) Float64() float64 { return float64(c) }

// FuzzCompressGrid holds the grid path to the oracle encoder: an update
// quantized by QuantizeGrid at 2-8 or 16 bits has, at every wire width
// 2-32, AppendCompressGrid bytes equal to the oracle's over the quantized
// floats, as has AppendCompressUpdate; and QuantizeGrid leaves the floats
// and the stream position plain Quantize leaves. The draws come from a
// seeded stream, or (round 1 and 2) always round up or always down.
func FuzzCompressGrid(f *testing.F) {
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	inf, nan := math.Inf(1), math.NaN()
	// The third argument picks the bits: 0-6 are 2-8 bits, 7 is 16.
	f.Add([]byte{}, int64(1), uint8(6), uint16(600), 0.01, uint8(0))
	f.Add(floats(0, math.Copysign(0, -1)), int64(2), uint8(6), uint16(300), 0.0, uint8(0))
	f.Add(floats(0, math.Copysign(0, -1), 1, -1), int64(3), uint8(2), uint16(257), 1.0, uint8(0))
	f.Add(floats(nan, 1), int64(4), uint8(6), uint16(40), 1.0, uint8(0))
	f.Add(floats(math.Float64frombits(0xfff8000000000123), -2), int64(5), uint8(6), uint16(9), 1.0, uint8(0))
	f.Add(floats(inf, -1), int64(6), uint8(6), uint16(12), 1.0, uint8(0))
	f.Add(floats(-inf), int64(7), uint8(4), uint16(600), 1e-3, uint8(0))
	f.Add(floats(5e-324, -1e-310), int64(8), uint8(6), uint16(256), 1e-320, uint8(0))
	f.Add(floats(1e-300, -3e-301), int64(9), uint8(7), uint16(255), 0.0, uint8(0))
	f.Add(floats(math.MaxFloat64, -math.MaxFloat64), int64(10), uint8(6), uint16(513), 1e307, uint8(0))
	f.Add(floats(3.5, -3.5/127), int64(11), uint8(7), uint16(511), 1.0, uint8(0))
	f.Add(floats(1, 0, 0, 0, 0, 0, 0, 0, -1), int64(12), uint8(3), uint16(700), 0.0, uint8(0))
	// maxAbs/step falls short of the level count, so the largest level is
	// the negative entry's floor, past the truncated maxAbs/step.
	f.Add(floats(-2.2452301562259764), int64(13), uint8(2), uint16(5), 0.0, uint8(0))
	f.Add(floats(-3.511484670719399, 1), int64(14), uint8(6), uint16(300), 0.5, uint8(0))
	// maxAbs/step just past the level count, rounded up to one level
	// more; and just short of it, rounded down to one level fewer.
	f.Add(floats(2.2823385413157915, -1), int64(15), uint8(6), uint16(20), 0.3, uint8(1))
	f.Add(floats(8.390943912754954), int64(16), uint8(2), uint16(3), 0.0, uint8(1))
	f.Add(floats(9.367391447578889, -2), int64(17), uint8(6), uint16(20), 0.3, uint8(2))
	f.Add(floats(2.4198765143622945), int64(18), uint8(2), uint16(3), 0.0, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, bitsSel uint8, nRaw uint16, sd float64, round uint8) {
		bits := []int{2, 3, 4, 5, 6, 7, 8, 16}[bitsSel%8]
		orig := gridCase(raw, int(nRaw)%700, sd, seed)

		want, v := orig.Clone(), orig.Clone()
		codes := make([]int16, len(v))
		var g Grid
		switch round % 3 {
		case 0:
			wantSrc, src := rngstate.New(seed), rngstate.New(seed)
			Quantize(want, bits, wantSrc)
			g = QuantizeGrid(v, bits, src, codes)
			if src.Pos() != wantSrc.Pos() {
				t.Fatalf("QuantizeGrid leaves the stream at %d, Quantize at %d", src.Pos(), wantSrc.Pos())
			}
		case 1:
			Quantize(want, bits, constUniform(0))
			g = QuantizeGrid(v, bits, constUniform(0), codes)
		case 2:
			Quantize(want, bits, constUniform(math.Nextafter(1, 0)))
			g = QuantizeGrid(v, bits, constUniform(math.Nextafter(1, 0)), codes)
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("bits %d: entry %d (x=%v) is %v, Quantize gives %v", bits, i, orig[i], v[i], want[i])
			}
		}
		if g.Codes != nil {
			for i, c := range g.Codes {
				if k := float64(c) * g.Step; math.Float64bits(k) != math.Float64bits(v[i]) && k != v[i] {
					t.Fatalf("bits %d: code %d times step %v is %v, the entry is %v", bits, c, g.Step, k, v[i])
				}
				if int(c) > g.KMax || -int(c) > g.KMax {
					t.Fatalf("bits %d: code %d beyond KMax %d", bits, c, g.KMax)
				}
			}
		}
		for wire := 2; wire <= 32; wire++ {
			oracle, err := oracleAppendCompressUpdate([]byte("hdr"), v, wire)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendCompressGrid([]byte("hdr"), v, g, wire)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, oracle) {
				t.Fatalf("bits %d (grid %v, KMax %d) wire %d: grid path\n%x\noracle\n%x",
					bits, g.Codes != nil, g.KMax, wire, got, oracle)
			}
			float, err := AppendCompressUpdate([]byte("hdr"), v, wire)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(float, oracle) {
				t.Fatalf("bits %d wire %d: float path\n%x\noracle\n%x", bits, wire, float, oracle)
			}
		}
	})
}
