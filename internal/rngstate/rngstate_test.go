package rngstate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// streamLen is how many values each identity case draws after its reseed:
// enough to cross both draw rngTap, where the lazy seed completes the
// register, and draw rngLen, where the feed index first wraps.
const streamLen = 1500

// checkStream draws n values from got and from the oracle want, mixing
// the two entry points by draw index: Int63 where bit k%64 of mix is set,
// Uint64 elsewhere. It fails on the first difference.
func checkStream(t *testing.T, name string, got *Source, want rand.Source64, n int, mix uint64) {
	t.Helper()
	for k := 0; k < n; k++ {
		if mix>>(k%64)&1 != 0 {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("%s: Int63 #%d: got %d want %d", name, k, g, w)
			}
		} else if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("%s: Uint64 #%d: got %d want %d", name, k, g, w)
		}
	}
}

func oracle(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// TestStreamIdentity pins the package's core contract: a Source yields
// exactly the stream of rand.NewSource with the same seed, through a
// fresh New and through Seed on a source already drawn from. The seeds
// cover math/rand's reduction edges (0 and the multiples of the modulus,
// which it maps to one fixed seed, negative values, the int64 extremes)
// and 2000 arbitrary ones; the reseed points straddle draw rngTap. The
// engines' committed goldens depend on this.
func TestStreamIdentity(t *testing.T) {
	edges := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
		zeroSeed, math.MinInt64, math.MaxInt64, 1 << 40,
	}
	seeds := append([]int64(nil), edges...)
	gen := rand.New(rand.NewSource(20240601))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	reseeds := []int{0, 272, 273, 274, 700}

	for i, seed := range seeds {
		next := seeds[(i+1)%len(seeds)]
		mix := uint64(seed) ^ uint64(next)
		// Every edge seed is reseeded at every point; the arbitrary seeds
		// take the points in turn.
		points := reseeds[i%len(reseeds) : i%len(reseeds)+1]
		if i < len(edges) {
			points = reseeds
		}

		checkStream(t, fmt.Sprintf("seed %d", seed), New(seed), oracle(seed), streamLen, mix)
		for _, at := range points {
			name := fmt.Sprintf("seed %d reseeded to %d at draw %d", seed, next, at)
			got, want := New(seed), oracle(seed)
			checkStream(t, name, got, want, at, mix)
			got.Seed(next)
			want.Seed(next)
			checkStream(t, name, got, want, streamLen, ^mix)
		}
	}
}

// TestRandMethodsIdentity checks the stream through every drawing method
// of rand.Rand the repo uses: rand.Rand takes its Source64 fast paths on a
// Source exactly as on the runtime's own source.
func TestRandMethodsIdentity(t *testing.T) {
	want := rand.New(rand.NewSource(42))
	got := rand.New(New(42))
	for i := 0; i < 2000; i++ {
		switch i % 6 {
		case 0:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("Float64 #%d: got %v want %v", i, g, w)
			}
		case 1:
			if w, g := want.Intn(17), got.Intn(17); w != g {
				t.Fatalf("Intn #%d: got %d want %d", i, g, w)
			}
		case 2:
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("Int63 #%d: got %d want %d", i, g, w)
			}
		case 3:
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("Uint64 #%d: got %d want %d", i, g, w)
			}
		case 4:
			if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
				t.Fatalf("NormFloat64 #%d: got %v want %v", i, g, w)
			}
		case 5:
			w := want.Perm(9)
			g := got.Perm(9)
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("Perm #%d: got %v want %v", i, g, w)
				}
			}
		}
	}
}

// FuzzSourceStream checks a Source against rand.NewSource for any seed:
// draw at values, reseed both to ^seed, then draw n more.
func FuzzSourceStream(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(700))
	f.Add(int64(-int32max), uint16(273), uint16(1500))
	f.Add(int64(math.MinInt64), uint16(272), uint16(608))
	f.Add(int64(zeroSeed), uint16(607), uint16(274))
	// Both sides cross draw rngTap+1: the reseeded stream refills the
	// register the first one allocated.
	f.Add(int64(20240601), uint16(700), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, at, n uint16) {
		got, want := New(seed), oracle(seed)
		checkStream(t, "before reseed", got, want, int(at%2048), uint64(seed))
		got.Seed(^seed)
		want.Seed(^seed)
		checkStream(t, "after reseed", got, want, int(n%2048), ^uint64(seed))
	})
}

// TestSeekTo proves restore-by-discard: capture Pos mid-stream, drain a
// fresh Source to that position, and require the continuations to match
// value for value. The burns straddle draws rngTap and rngLen.
func TestSeekTo(t *testing.T) {
	for _, burn := range []int{0, 1, 7, 100, 272, 273, 274, 606, 607, 1777} {
		src := New(7)
		r := rand.New(src)
		for i := 0; i < burn; i++ {
			r.Float64()
		}
		pos := src.Pos()

		restored := New(7)
		restored.SeekTo(pos)
		if restored.Pos() != pos {
			t.Fatalf("burn=%d: Pos after SeekTo = %d, want %d", burn, restored.Pos(), pos)
		}
		r2 := rand.New(restored)
		for i := 0; i < 500; i++ {
			if w, g := r.Float64(), r2.Float64(); w != g {
				t.Fatalf("burn=%d draw %d: got %v want %v", burn, i, g, w)
			}
		}
	}
}

// TestPosCountsEveryEntryPoint verifies Int63 and Uint64 each advance the
// position by exactly one — the invariant SeekTo's discard loop relies on.
func TestPosCountsEveryEntryPoint(t *testing.T) {
	s := New(3)
	if s.Pos() != 0 {
		t.Fatalf("fresh Pos = %d, want 0", s.Pos())
	}
	s.Int63()
	s.Uint64()
	s.Int63()
	if s.Pos() != 3 {
		t.Fatalf("Pos = %d after 3 draws, want 3", s.Pos())
	}
	s.Seed(3)
	if s.Pos() != 0 {
		t.Fatalf("Pos = %d after reseed, want 0", s.Pos())
	}
}

// TestInt63MatchesUint64Discard pins that discarding with Uint64 lands on
// the same state even when the original stream was drawn via Int63 — the
// two entry points advance the same underlying sequence.
func TestInt63MatchesUint64Discard(t *testing.T) {
	src := New(11)
	for i := 0; i < 123; i++ {
		src.Int63()
	}
	next := src.Int63()

	re := New(11)
	re.SeekTo(123)
	if got := re.Int63(); got != next {
		t.Fatalf("after SeekTo(123): got %d want %d", got, next)
	}
}

// TestMemoryContract pins what a stream costs: a Source is a few words
// until draw rngTap+1 first reads the register, that draw allocates it,
// and a reseeded Source refills the register it has. Every resident
// device client holds three trace streams that stop long before the
// register is needed, so these figures are per-client memory.
func TestMemoryContract(t *testing.T) {
	if size := unsafe.Sizeof(Source{}); size > 64 {
		t.Errorf("Source is %d bytes, want <= 64", size)
	}
	if got := testing.AllocsPerRun(100, func() {
		s := New(5)
		for i := 0; i < rngTap; i++ {
			sink += s.Uint64()
		}
		escaped = s
	}); got != 1 {
		t.Errorf("New plus %d draws: %v allocations, want 1 (the Source)", rngTap, got)
	}
	if got := testing.AllocsPerRun(100, func() {
		s := New(5)
		for i := 0; i <= rngTap; i++ {
			sink += s.Uint64()
		}
		escaped = s
	}); got != 2 {
		t.Errorf("New plus %d draws: %v allocations, want 2 (the Source and its register)", rngTap+1, got)
	}
	s := New(5)
	for i := 0; i <= rngTap; i++ {
		s.Uint64()
	}
	if got := testing.AllocsPerRun(100, func() {
		s.Seed(6)
		for i := 0; i < streamLen; i++ {
			sink += s.Uint64()
		}
	}); got != 0 {
		t.Errorf("Seed plus %d draws on a source with a register: %v allocations, want 0", streamLen, got)
	}
}

// sink and escaped keep TestMemoryContract's draws and sources live, so
// the compiler can neither drop the draws nor keep a Source on the stack.
var (
	sink    uint64
	escaped *Source
)

// blockOp is one step of a block-draw script: a block of n values, drawn
// by Float64s or NormFloat64s, or a single scalar rand.Rand draw.
type blockOp struct {
	norm, scalar bool
	n            int
}

// checkBlocks runs ops against got's block draws and against want, a
// rand.Rand over a Source on the same seed, value for value and bit for
// bit, and then requires equal stream positions.
func checkBlocks(t *testing.T, name string, got *Source, want *rand.Rand, wantSrc *Source, ops []blockOp) {
	t.Helper()
	var buf [1000]float64
	for k, op := range ops {
		if op.scalar {
			// The scalar draws go through both sides' rand.Rand, as a
			// caller mixing the two APIs on one stream would.
			if w, g := want.Float64(), rand.New(got).Float64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: op %d scalar Float64: got %v want %v", name, k, g, w)
			}
			continue
		}
		dst := buf[:op.n]
		if op.norm {
			got.NormFloat64s(dst)
		} else {
			got.Float64s(dst)
		}
		for i, g := range dst {
			var w float64
			if op.norm {
				w = want.NormFloat64()
			} else {
				w = want.Float64()
			}
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: op %d (norm=%v, n=%d) value %d: got %v want %v", name, k, op.norm, op.n, i, g, w)
			}
		}
	}
	if got.Pos() != wantSrc.Pos() {
		t.Fatalf("%s: Pos %d after the blocks, want %d", name, got.Pos(), wantSrc.Pos())
	}
}

// TestBlockDrawsMatchRand holds Float64s and NormFloat64s to the values
// and the stream position of rand.Rand's Float64 and NormFloat64 on the
// same seed: zero and negative seeds among them, blocks of 0 to 1000
// values interleaved with scalar draws, and scalar prefixes that put a
// block's first value on either side of draw rngTap+1, where the lazy seed
// completes the register, and of the feed index's first wrap.
func TestBlockDrawsMatchRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -7, int32max, -int32max, zeroSeed, math.MinInt64, math.MaxInt64, 20240601}
	script := rand.New(rand.NewSource(3))
	for _, seed := range seeds {
		for _, prefix := range []int{0, 1, 272, 273, 274, 275, 606, 607, 608} {
			for _, norm := range []bool{false, true} {
				ops := make([]blockOp, 0, 40)
				for i := 0; i < prefix; i++ {
					ops = append(ops, blockOp{scalar: true})
				}
				for _, n := range []int{0, 1, 2, 255, 256, 257, 1000} {
					ops = append(ops, blockOp{norm: norm, n: n}, blockOp{scalar: true})
				}
				for i := 0; i < 12; i++ {
					ops = append(ops, blockOp{norm: script.Intn(2) == 0, scalar: script.Intn(4) == 0, n: script.Intn(1001)})
				}
				wantSrc := New(seed)
				name := fmt.Sprintf("seed %d, prefix %d, norm %v", seed, prefix, norm)
				checkBlocks(t, name, New(seed), rand.New(wantSrc), wantSrc, ops)
			}
		}
	}
}

// blockTable holds (seed, index) → bits of the index-th value a fresh
// stream yields through rand.Rand's Float64 (norm false) or NormFloat64
// (norm true), recorded through math/rand on amd64 with FMA: the first
// values, the values either side of the lazy seed's completion, and for
// each seed the first NormFloat64 that leaves the rectangle cores through
// a wedge it accepts (wedge), through a wedge rejection and a fresh draw
// (reject), and through the base strip's tail (tail). It holds the block
// and scalar draws to those bits on any host.
var blockTable = []struct {
	seed  int64
	norm  bool
	index int
	bits  uint64
}{
	{1, false, 0, 0x3fe359608841ff3f},
	{1, false, 1, 0x3fee18a683d7cfc6},
	{1, false, 272, 0x3f8f175c897a14c5},
	{1, false, 273, 0x3fdbb153f58b4917},
	{1, false, 274, 0x3fecf3ed4b8ca609},
	{1, false, 607, 0x3fe4c9f0ddb04503},
	{1, false, 1000, 0x3fda90b2e0c33b48},
	{1, true, 0, 0xbff3bd7936ff4ab8},   // core
	{1, true, 1, 0xbfc02c27bd32e7e4},   // core
	{1, true, 4, 0x3fd4a8d75cbc6678},   // reject
	{1, true, 8, 0xbfe766aba3d347c6},   // wedge
	{1, true, 273, 0x3ffc083c721d4348}, // core
	{1, true, 274, 0x3fcc661d1d3276f4}, // core
	{1, true, 883, 0xc00d6d775c92aa25}, // tail
	{-7, false, 0, 0x3fb4bc83c28aa400},
	{-7, false, 1, 0x3fe89481c42a8ab7},
	{-7, false, 272, 0x3fd9efe95432be0f},
	{-7, false, 273, 0x3fd04486200a4e05},
	{-7, false, 274, 0x3fc7f70e63e8094e},
	{-7, false, 607, 0x3fb66f02a2d0b0ed},
	{-7, false, 1000, 0x3fe7fd9ef9a14aae},
	{-7, true, 0, 0x3fd02da48abf1ca2},    // core
	{-7, true, 1, 0xbfe06df2844e2b43},    // core
	{-7, true, 3, 0x3fa8a0ed933a9f48},    // wedge
	{-7, true, 105, 0x3fd1f76649e2aeb0},  // reject
	{-7, true, 273, 0xc002bc891903a4ca},  // core
	{-7, true, 274, 0x3fef8e5c27b8aada},  // core
	{-7, true, 4187, 0xc00d094beaa913a1}, // tail
	{0, false, 0, 0x3fee3f0bfeb0bf65},
	{0, false, 1, 0x3fcf5b0412ffd342},
	{0, false, 272, 0x3fe43bff21a13eb9},
	{0, false, 273, 0x3fe5e967abc273a1},
	{0, false, 274, 0x3fd733d3b5f043a4},
	{0, false, 607, 0x3fe008edf168f2e1},
	{0, false, 1000, 0x3fe1039cc4e2bbf3},
	{0, true, 0, 0xbfd20580be983308},   // core
	{0, true, 1, 0x3fe245157bd663cc},   // core
	{0, true, 129, 0xbffb396e4e6e5bf0}, // reject
	{0, true, 144, 0x3f87073194c4dd20}, // wedge
	{0, true, 252, 0x400f8e525207d724}, // tail
	{0, true, 273, 0x3fe73e34ea29927c}, // core
	{0, true, 274, 0xbfc3e26a787371e4}, // core
	{20240601, false, 0, 0x3fe7cb0cee52c38d},
	{20240601, false, 1, 0x3fecec4e98cd7575},
	{20240601, false, 272, 0x3fbd943e26c854c4},
	{20240601, false, 273, 0x3fd83face78df6eb},
	{20240601, false, 274, 0x3fcd9d941aae76fe},
	{20240601, false, 607, 0x3fdc0e3f09a4408e},
	{20240601, false, 1000, 0x3fbd91aa22516d9a},
	{20240601, true, 0, 0xbff42e45e9a0ef62},    // core
	{20240601, true, 1, 0xbfd3e279c9c6d956},    // core
	{20240601, true, 40, 0x3fd49dd0af819144},   // wedge
	{20240601, true, 51, 0x3fcf9b704ff0ee24},   // reject
	{20240601, true, 273, 0x3ffd1dc003ed7918},  // core
	{20240601, true, 274, 0xbff5462c4fdda15e},  // core
	{20240601, true, 2215, 0x400d75ff7aa72100}, // tail
}

func TestBlockTable(t *testing.T) {
	for _, row := range blockTable {
		buf := make([]float64, row.index+1)
		src, scalar := New(row.seed), New(row.seed)
		var last float64
		if row.norm {
			src.NormFloat64s(buf)
			for range buf {
				last = scalar.NormFloat64()
			}
		} else {
			src.Float64s(buf)
			for range buf {
				last = scalar.Float64()
			}
		}
		if got := math.Float64bits(buf[row.index]); got != row.bits {
			t.Errorf("seed %d norm %v block value %d = %#016x, want %#016x", row.seed, row.norm, row.index, got, row.bits)
		}
		if got := math.Float64bits(last); got != row.bits {
			t.Errorf("seed %d norm %v scalar value %d = %#016x, want %#016x", row.seed, row.norm, row.index, got, row.bits)
		}
	}
}

// FuzzBlockDraws holds block draws to rand.Rand's stream for any seed,
// scalar prefix and sequence of block lengths: each byte of script is one
// op, its low bit picking Float64s or NormFloat64s and the rest a length
// (0-127, times eight past the first bit's half).
func FuzzBlockDraws(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{2, 3, 255, 254})
	f.Add(int64(-7), uint16(273), []byte{1, 0, 129})
	f.Add(int64(0), uint16(272), []byte{9, 8, 201, 200, 7})
	f.Add(int64(20240601), uint16(700), []byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, seed int64, prefix uint16, script []byte) {
		ops := make([]blockOp, 0, int(prefix%1024)+len(script))
		for i := 0; i < int(prefix%1024); i++ {
			ops = append(ops, blockOp{scalar: true})
		}
		for _, b := range script {
			n := int(b >> 1 & 0x3F)
			if b&0x80 != 0 {
				n *= 8
			}
			ops = append(ops, blockOp{norm: b&1 != 0, n: n})
		}
		wantSrc := New(seed)
		checkBlocks(t, "fuzz", New(seed), rand.New(wantSrc), wantSrc, ops)
	})
}

// BenchmarkDraws times a value drawn through rand.Rand against one drawn
// in a block of 256 uniforms (opt.Quantize's block) or 32 normals (a
// femnist sample's features), on a stream past its seeding draws.
func BenchmarkDraws(b *testing.B) {
	var buf [256]float64
	for _, bc := range []struct {
		name string
		draw func(*Source, *rand.Rand)
		per  int
	}{
		{"Float64/rand", func(_ *Source, r *rand.Rand) { buf[0] = r.Float64() }, 1},
		{"Float64/block256", func(s *Source, _ *rand.Rand) { s.Float64s(buf[:]) }, 256},
		{"NormFloat64/rand", func(_ *Source, r *rand.Rand) { buf[0] = r.NormFloat64() }, 1},
		{"NormFloat64/block32", func(s *Source, _ *rand.Rand) { s.NormFloat64s(buf[:32]) }, 32},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src := New(1)
			r := rand.New(src)
			src.SeekTo(rngLen)
			b.ResetTimer()
			for i := 0; i < b.N; i += bc.per {
				bc.draw(src, r)
			}
		})
	}
}

// TestFloat64DrawsAgainOnOne plants the rare draw whose Int63 rounds
// up to 1.0 as a float64, which rand.Rand's Float64 discards before
// drawing again: the block and scalar draws must discard it too, and end
// at the same position.
func TestFloat64DrawsAgainOnOne(t *testing.T) {
	for _, planted := range []int{0, 1, 5} {
		src := New(11)
		src.SeekTo(rngLen)
		// The draw after planted more reads slots feed-1-planted and
		// tap-1-planted, wrapped; make them sum to 2⁶³-1.
		f := (src.feed - 1 - planted + rngLen) % rngLen
		tp := (src.tap - 1 - planted + rngLen) % rngLen
		src.vec[f] = rngMask - src.vec[tp]
		want := *src
		want.vec = new([rngLen]int64)
		*want.vec = *src.vec
		scalar := want
		scalar.vec = new([rngLen]int64)
		*scalar.vec = *src.vec

		var got [8]float64
		src.Float64s(got[:])
		r := rand.New(&want)
		for i, g := range got {
			w, s := r.Float64(), scalar.Float64()
			if w == 1 || g != w || s != w {
				t.Fatalf("planted %d, value %d: block %v, scalar %v, rand.Rand %v", planted, i, g, s, w)
			}
		}
		if src.Pos() != want.Pos() || scalar.Pos() != want.Pos() || want.Pos() != rngLen+9 {
			t.Fatalf("planted %d: positions block %d, scalar %d, rand.Rand %d, want %d", planted, src.Pos(), scalar.Pos(), want.Pos(), rngLen+9)
		}
	}
}
