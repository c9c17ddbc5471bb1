package opt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"floatfl/internal/tensor"
)

func TestActionsAndAll(t *testing.T) {
	if len(Actions()) != 8 {
		t.Fatalf("FLOAT's action space must have 8 actions, got %d", len(Actions()))
	}
	if len(All()) != NumTechniques {
		t.Fatalf("All() returned %d, want %d", len(All()), NumTechniques)
	}
	for _, a := range Actions() {
		if a == TechNone {
			t.Fatal("Actions must not include TechNone")
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, tech := range All() {
		got, err := Parse(tech.String())
		if err != nil || got != tech {
			t.Fatalf("Parse(%q) = %v, %v", tech.String(), got, err)
		}
	}
	if _, err := Parse("turbo"); err == nil {
		t.Fatal("Parse accepted unknown technique")
	}
	if Technique(99).String() == "" {
		t.Fatal("unknown technique should render something")
	}
}

func TestEffectsShapes(t *testing.T) {
	// Paper-mandated cost shapes.
	q8, q16 := TechQuant8.Effects(), TechQuant16.Effects()
	if q8.CommFactor >= q16.CommFactor {
		t.Fatal("8-bit quantization must compress communication more than 16-bit")
	}
	if q8.ComputeFactor < 1 || q16.ComputeFactor < 1 {
		t.Fatal("quantization must not reduce compute (it adds overhead)")
	}
	p25, p75 := TechPrune25.Effects(), TechPrune75.Effects()
	if p75.CommFactor >= p25.CommFactor || p75.ComputeFactor >= p25.ComputeFactor {
		t.Fatal("more pruning must save more communication and compute")
	}
	t25, t75 := TechPartial25.Effects(), TechPartial75.Effects()
	if t75.ComputeFactor >= t25.ComputeFactor {
		t.Fatal("more partial training must save more compute")
	}
	// Partial training relieves compute more than communication; pruning
	// relieves communication more than partial training does (Section 5,
	// Fig 10c discussion).
	if t75.ComputeFactor > p75.ComputeFactor {
		t.Fatal("partial75 should save at least as much compute as prune75")
	}
	if t75.CommFactor < p75.CommFactor {
		t.Fatal("prune75 should save more communication than partial75")
	}
	if q8.CommFactor > p75.CommFactor+0.1 {
		t.Fatal("8-bit quantization should be among the best communication savers")
	}
	none := TechNone.Effects()
	if none.ComputeFactor != 1 || none.CommFactor != 1 || none.MemoryFactor != 1 {
		t.Fatal("TechNone must be cost-neutral")
	}
}

func TestEffectsAllPositive(t *testing.T) {
	for _, tech := range All() {
		e := tech.Effects()
		if e.ComputeFactor <= 0 || e.CommFactor <= 0 || e.MemoryFactor <= 0 {
			t.Fatalf("%v has non-positive cost factor: %+v", tech, e)
		}
	}
}

func TestQuantizeUnbiasedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := tensor.NewVector(2000)
	tensor.RandnInto(orig, 1, rng)
	v := orig.Clone()
	Quantize(v, 8, rng)
	// Bounded error: |err| <= scale.
	scale := orig.MaxAbs() / 127
	var sumErr float64
	for i := range v {
		err := v[i] - orig[i]
		if math.Abs(err) > scale+1e-12 {
			t.Fatalf("quantization error %v exceeds one grid step %v", err, scale)
		}
		sumErr += err
	}
	// Stochastic rounding is unbiased: mean error near zero.
	if math.Abs(sumErr/float64(len(v))) > scale/4 {
		t.Fatalf("quantization looks biased: mean error %v", sumErr/float64(len(v)))
	}
}

func TestQuantizeEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := tensor.Vector{}
	Quantize(v, 8, rng) // must not panic
	z := tensor.NewVector(5)
	Quantize(z, 8, rng)
	for _, x := range z {
		if x != 0 {
			t.Fatal("quantizing zeros must stay zero")
		}
	}
	w := tensor.Vector{1, -1, 0.5}
	orig := w.Clone()
	Quantize(w, 32, rng)
	for i := range w {
		if w[i] != orig[i] {
			t.Fatal("32-bit quantization must be identity")
		}
	}
	// Fewer bits -> coarser grid -> larger typical error.
	coarse := orig.Clone()
	Quantize(coarse, 2, rng)
}

func TestQuantizeHugeBitWidthsAreIdentity(t *testing.T) {
	// Regression: bit widths above 62 must take the >= 32 no-op path. If
	// they ever reached the level computation, int64(1)<<(bits-1) would
	// overflow (63 -> MinInt64, >= 64 -> undefined for the signed width)
	// and corrupt the update with a negative or NaN grid scale.
	rng := rand.New(rand.NewSource(5))
	orig := tensor.Vector{1.5, -2.25, 0.125, 1e-9, -3e4}
	for _, bits := range []int{32, 62, 63, 64, 100, math.MaxInt32} {
		v := orig.Clone()
		Quantize(v, bits, rng)
		for i := range v {
			if v[i] != orig[i] {
				t.Fatalf("Quantize with bits=%d modified the vector: %v -> %v",
					bits, orig[i], v[i])
			}
		}
	}
}

func TestQuant8CoarserThanQuant16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := tensor.NewVector(5000)
	tensor.RandnInto(orig, 1, rng)
	errOf := func(bits int) float64 {
		v := orig.Clone()
		Quantize(v, bits, rand.New(rand.NewSource(4)))
		var s float64
		for i := range v {
			d := v[i] - orig[i]
			s += d * d
		}
		return s
	}
	if errOf(8) <= errOf(16) {
		t.Fatal("8-bit quantization must distort more than 16-bit")
	}
}

func TestPruneSmallestExactCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		v := tensor.NewVector(1000)
		tensor.RandnInto(v, 1, rng)
		PruneSmallest(v, frac)
		zeros := 0
		for _, x := range v {
			if x == 0 {
				zeros++
			}
		}
		want := int(math.Round(frac * 1000))
		if zeros != want {
			t.Fatalf("frac=%v pruned %d entries, want %d", frac, zeros, want)
		}
	}
}

// PruneSmallest's scratch comes from a shared free list: calls on several
// goroutines at once, over vectors of different lengths (so buffers too
// short for the next caller come back to the list), must each leave what
// the same call leaves alone. Run it under -race.
func TestPruneSmallestConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := make([]tensor.Vector, 16)
	want := make([]tensor.Vector, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.NewVector(50 + 97*i)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
		want[i] = inputs[i].Clone()
		PruneSmallest(want[i], 0.5)
	}
	done := make(chan tensor.Vector, len(inputs))
	for i := range inputs {
		go func() {
			v := inputs[i].Clone()
			for range 20 {
				copy(v, inputs[i])
				PruneSmallest(v, 0.5)
			}
			done <- v
		}()
	}
	got := make(map[int]tensor.Vector)
	for range inputs {
		v := <-done
		got[len(v)] = v
	}
	for i, w := range want {
		if !slices.Equal(got[len(w)], w) {
			t.Errorf("vector %d (%d scalars): concurrent prune differs from a lone one", i, len(w))
		}
	}
}

func TestPruneKeepsLargest(t *testing.T) {
	v := tensor.Vector{0.1, -5, 0.2, 4, -0.05, 3}
	PruneSmallest(v, 0.5)
	if v[1] != -5 || v[3] != 4 || v[5] != 3 {
		t.Fatalf("pruning removed large-magnitude entries: %v", v)
	}
	if v[0] != 0 || v[2] != 0 || v[4] != 0 {
		t.Fatalf("pruning kept small-magnitude entries: %v", v)
	}
}

func TestPruneEdgeCases(t *testing.T) {
	v := tensor.Vector{1, 2, 3}
	PruneSmallest(v, 0)
	if v[0] != 1 {
		t.Fatal("frac=0 must be a no-op")
	}
	PruneSmallest(v, 2)
	for _, x := range v {
		if x != 0 {
			t.Fatal("frac>1 must zero everything")
		}
	}
	var empty tensor.Vector
	PruneSmallest(empty, 0.5) // must not panic
	// Ties at threshold: exactly k zeroed.
	tied := tensor.Vector{1, 1, 1, 1}
	PruneSmallest(tied, 0.5)
	zeros := 0
	for _, x := range tied {
		if x == 0 {
			zeros++
		}
	}
	if zeros != 2 {
		t.Fatalf("tie handling pruned %d, want 2", zeros)
	}
}

func TestFrozenLayerMask(t *testing.T) {
	if FrozenLayerMask(4, 0) != nil {
		t.Fatal("frac=0 should return nil")
	}
	if FrozenLayerMask(1, 0.9) != nil {
		t.Fatal("single-layer model cannot freeze anything")
	}
	m := FrozenLayerMask(4, 0.5)
	if len(m) != 4 || !m[0] || !m[1] || m[2] || m[3] {
		t.Fatalf("frac=0.5 over 4 layers = %v, want [T T F F]", m)
	}
	// Output layer always trainable even at frac=1.
	m = FrozenLayerMask(3, 1.0)
	if m[len(m)-1] {
		t.Fatal("output layer must never be frozen")
	}
	frozenCount := 0
	for _, f := range m {
		if f {
			frozenCount++
		}
	}
	if frozenCount != 2 {
		t.Fatalf("frac=1 over 3 layers should freeze 2, froze %d", frozenCount)
	}
	// Shared windows and built masks alike: the first k layers frozen and
	// no room to append into the shared array.
	for n := 2; n <= maxSharedMask+3; n++ {
		for _, frac := range []float64{0.25, 0.5, 0.75, 1} {
			m := FrozenLayerMask(n, frac)
			k := min(int(math.Round(frac*float64(n))), n-1)
			if k == 0 && m == nil {
				continue
			}
			if len(m) != n || cap(m) != n {
				t.Fatalf("n=%d frac=%v: len %d cap %d, want %d", n, frac, len(m), cap(m), n)
			}
			for i, f := range m {
				if f != (i < k) {
					t.Fatalf("n=%d frac=%v: mask %v, want the first %d frozen", n, frac, m, k)
				}
			}
		}
	}
}

func TestApplyToUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := tensor.NewVector(400)
	tensor.RandnInto(v, 1, rng)
	orig := v.Clone()
	ApplyToUpdate(TechPrune50, v, rng)
	zeros := 0
	for _, x := range v {
		if x == 0 {
			zeros++
		}
	}
	if zeros < 190 {
		t.Fatalf("ApplyToUpdate(prune50) zeroed only %d of 400", zeros)
	}
	v2 := orig.Clone()
	ApplyToUpdate(TechNone, v2, rng)
	for i := range v2 {
		if v2[i] != orig[i] {
			t.Fatal("TechNone must not modify the update")
		}
	}
	v3 := orig.Clone()
	ApplyToUpdate(TechQuant8, v3, rng)
	changed := false
	for i := range v3 {
		if v3[i] != orig[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("quantization did not alter the update")
	}
	// Partial training acts at training time, so update-side is a no-op.
	v4 := orig.Clone()
	ApplyToUpdate(TechPartial75, v4, rng)
	for i := range v4 {
		if v4[i] != orig[i] {
			t.Fatal("partial training must not modify the update")
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := tensor.NewVector(512)
	tensor.RandnInto(v, 1, rng)
	PruneSmallest(v, 0.5)
	blob, err := CompressUpdate(v, 16)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecompressUpdate(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(v) {
		t.Fatalf("round trip length %d, want %d", len(back), len(v))
	}
	scale := v.MaxAbs() / 32767
	for i := range v {
		if math.Abs(back[i]-v[i]) > scale/2+1e-12 {
			t.Fatalf("round trip error at %d: %v vs %v", i, back[i], v[i])
		}
		if v[i] == 0 && back[i] != 0 {
			t.Fatal("zero entries must round trip exactly")
		}
	}
}

func TestCodecZeroVector(t *testing.T) {
	v := tensor.NewVector(100)
	blob, err := CompressUpdate(v, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 20 {
		t.Fatalf("all-zero vector should compress to a few bytes, got %d", len(blob))
	}
	back, err := DecompressUpdate(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range back {
		if x != 0 {
			t.Fatal("zero vector did not round trip")
		}
	}
}

func TestCodecValidation(t *testing.T) {
	if _, err := CompressUpdate(tensor.Vector{1}, 1); err == nil {
		t.Fatal("CompressUpdate accepted bits=1")
	}
	if _, err := CompressUpdate(tensor.Vector{1}, 64); err == nil {
		t.Fatal("CompressUpdate accepted bits=64")
	}
	if _, err := DecompressUpdate([]byte{1, 2}); err == nil {
		t.Fatal("DecompressUpdate accepted short buffer")
	}
	blob, _ := CompressUpdate(tensor.Vector{1, 0, 2}, 8)
	if _, err := DecompressUpdate(blob[:len(blob)-1]); err == nil {
		t.Fatal("DecompressUpdate accepted truncated body")
	}
}

func TestCompressionMatchesCommFactorShape(t *testing.T) {
	// The codec is the ground truth for CommFactor shapes: pruning 75%
	// must yield a smaller wire size than pruning 25%, and 8-bit smaller
	// than 16-bit.
	rng := rand.New(rand.NewSource(8))
	base := tensor.NewVector(4096)
	tensor.RandnInto(base, 1, rng)

	size := func(frac float64, bits int) int {
		v := base.Clone()
		PruneSmallest(v, frac)
		b, err := CompressUpdate(v, bits)
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}
	if size(0.75, 16) >= size(0.25, 16) {
		t.Fatal("prune75 wire size should be below prune25")
	}
	if size(0, 8) >= size(0, 16) {
		t.Fatal("8-bit wire size should be below 16-bit")
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(x int64) bool {
		if x == math.MinInt64 {
			return true // zigzag of MinInt64 overflows the +1 offset domain
		}
		return unzigzag(zigzag(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: codec round trip preserves zero positions and approximates
// values within one grid step for random sparse vectors.
func TestCodecPropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw, fracRaw uint8) bool {
		n := 1 + int(nRaw)%256
		rng := rand.New(rand.NewSource(seed))
		v := tensor.NewVector(n)
		tensor.RandnInto(v, 1, rng)
		PruneSmallest(v, float64(fracRaw)/255)
		blob, err := CompressUpdate(v, 16)
		if err != nil {
			return false
		}
		back, err := DecompressUpdate(blob)
		if err != nil || len(back) != n {
			return false
		}
		scale := v.MaxAbs() / 32767
		for i := range v {
			if math.Abs(back[i]-v[i]) > scale/2+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressRejectsHugeDeclaredLength(t *testing.T) {
	blob, err := CompressUpdate(tensor.Vector{1, 2, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Forge an absurd element count in the header.
	blob[0], blob[1], blob[2], blob[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := DecompressUpdate(blob); err == nil {
		t.Fatal("decoder accepted a multi-gigabyte declared length")
	}
}

// hugeZeroRun is a 25-byte stream declaring 10 elements whose first token is
// a zero run of 2^63: as an int the run is negative, so a signed bounds
// check lets it through and the next value lands at a negative index.
func hugeZeroRun() []byte {
	blob := make([]byte, headerLen, 25)
	binary.LittleEndian.PutUint32(blob[0:4], 10)
	binary.LittleEndian.PutUint64(blob[4:12], math.Float64bits(1))
	blob[12] = 16
	blob = append(blob, 0) // zero marker
	blob = binary.AppendUvarint(blob, 1<<63)
	return append(blob, 3) // one value
}

// TestDecompressZeroRunPastInt63: regression for the decoder panicking with
// "index out of range [-9223372036854775808]" on a stream any client can
// POST to /v1/update.
func TestDecompressZeroRunPastInt63(t *testing.T) {
	blob := hugeZeroRun()
	if len(blob) != 25 {
		t.Fatalf("blob is %d bytes, want 25", len(blob))
	}
	if _, err := DecompressUpdate(blob); err == nil {
		t.Fatal("decoder accepted a zero run of 2^63 in a 10-element stream")
	}
	if err := DecompressUpdateInto(tensor.NewVector(10), blob); err == nil {
		t.Fatal("DecompressUpdateInto accepted a zero run of 2^63")
	}
}

// TestDecompressUpdateIntoChecksLengthFirst: the declared count is compared
// with the destination before the body is looked at, so a header cannot
// size an allocation — and a recycled destination is fully overwritten,
// zero runs included.
func TestDecompressUpdateIntoChecksLengthFirst(t *testing.T) {
	v := tensor.Vector{0, 0, 1.5, 0, -2, 0, 0, 0}
	blob, err := AppendCompressUpdate([]byte("prefix"), v, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:6]) != "prefix" {
		t.Fatal("AppendCompressUpdate overwrote the bytes it was handed")
	}
	blob = blob[6:]
	if whole, _ := CompressUpdate(v, 16); !bytes.Equal(blob, whole) {
		t.Fatal("AppendCompressUpdate and CompressUpdate disagree")
	}

	dst := tensor.NewVector(len(v))
	dst.Fill(99) // a recycled vector arrives dirty
	if err := DecompressUpdateInto(dst, blob); err != nil {
		t.Fatal(err)
	}
	want, err := DecompressUpdate(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d: Into %v, DecompressUpdate %v", i, dst[i], want[i])
		}
	}

	for _, n := range []int{0, len(v) - 1, len(v) + 1} {
		if err := DecompressUpdateInto(tensor.NewVector(n), blob); !errors.Is(err, ErrLengthMismatch) {
			t.Errorf("destination of %d for a stream of %d: %v, want ErrLengthMismatch", n, len(v), err)
		}
	}
	// The largest count DecompressUpdate would allocate for, offered to a
	// small destination: rejected without allocating.
	binary.LittleEndian.PutUint32(blob[0:4], MaxDecodedLen)
	small := tensor.NewVector(8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = DecompressUpdateInto(small, blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("2^24-element header into 8: %v, want ErrLengthMismatch", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting a 2^24-element header allocated %d bytes", grew)
	}
}

// TestKthSmallestMatchesSort checks the selection behind PruneSmallest
// against sort.Float64s at every rank of vectors too long for the fuzzer to
// reach, in the shapes that defeat naive quickselects: sorted, reversed,
// all ties, organ pipe, mostly zeros (frozen layers), and NaN-laden.
func TestKthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 601
	shapes := map[string]func(i int) float64{
		"random":   func(int) float64 { return rng.NormFloat64() },
		"sorted":   func(i int) float64 { return float64(i) },
		"reversed": func(i int) float64 { return float64(n - i) },
		"ties":     func(int) float64 { return 2 },
		"organ":    func(i int) float64 { return float64(min(i, n-i)) },
		"zeros":    func(i int) float64 { return float64(i % 7 / 6) },
		"nan":      func(i int) float64 { return []float64{math.NaN(), 1, math.Inf(1), 0, -1}[rng.Intn(5)] },
	}
	for name, shape := range shapes {
		a := make([]float64, n)
		for i := range a {
			a[i] = shape(i)
		}
		want := slices.Clone(a)
		sort.Float64s(want)
		for k := 0; k < n; k += 7 {
			got := kthSmallest(slices.Clone(a), k)
			if math.Float64bits(got) != math.Float64bits(want[k]) && !(math.IsNaN(got) && math.IsNaN(want[k])) {
				t.Fatalf("%s: rank %d selects %v, sort.Float64s places %v", name, k, got, want[k])
			}
		}
	}
}
