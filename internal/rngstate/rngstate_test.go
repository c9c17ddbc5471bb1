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
