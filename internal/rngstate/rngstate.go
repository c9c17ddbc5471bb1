// Package rngstate provides math/rand's generator with a countable,
// seekable position, so RNG streams can be checkpointed and restored
// bit-identically.
//
// Every seeded stream in the repo is built with New(seed), and the stream
// is math/rand's, bit for bit: New(seed) yields exactly the values of
// rand.NewSource(seed), through Int63 and Uint64 alike, and it implements
// rand.Source64 like the runtime's own source, so rand.Rand takes the same
// fast paths and all committed goldens keep their bytes. Only the cost of
// computing the stream differs.
//
// math/rand's Seed fills its 607-word register by walking 1841 serial
// steps of the Lehmer chain x ← 48271·x mod (2³¹−1), each waiting on the
// one before. Step n of that chain is x₀·48271ⁿ mod (2³¹−1), so Source
// keeps a table of the powers and computes any initial word with three
// independent multiplies. Seed itself only records x₀: each of the first
// 273 draws is the sum of two initial words no draw has written yet and
// computes them on demand. The register is allocated and filled only when
// draw 274 first reads a slot those draws wrote, recomputing what they
// would have stored. Most streams in the simulator stop before that, so
// seeding them is O(1) in time and a stream costs O(1) memory, about 48
// bytes rather than the register's 4.9 KB, until draw 274. A reseeded
// Source keeps the register it has, so a long stream reseeded in a loop
// allocates it once.
//
// Source counts draws, which makes the stream position serializable as a
// single uint64; restoring is reseeding and discarding that many draws.
//
// Source also draws rand.Rand's Float64 and NormFloat64 values itself,
// one at a time or a block at a time (Float64s, NormFloat64s). A block
// keeps the register position in locals, and yields the values and leaves
// the position of as many rand.New(src) calls, so the two can be mixed on
// one stream. NormFloat64 is an owned copy of math/rand's ziggurat
// (normal.go) whose arithmetic is the same on every host.
package rngstate

import "math/rand"

// The constants of math/rand's additive lagged Fibonacci generator and of
// the Lehmer chain its Seed runs.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271

	// zeroSeed stands in for a seed ≡ 0 mod int32max, as in math/rand.
	zeroSeed = 89482311
	// warmup is how many Lehmer steps Seed discards before the first word.
	warmup = 20
	// firstFeed is the feed index a fresh Seed leaves; draw j < rngTap
	// updates slot firstFeed-1-j from it and slot rngLen-1-j.
	firstFeed = rngLen - rngTap
)

var (
	// powers[i] holds 48271ⁿ mod (2³¹−1) for the three chain steps
	// n = warmup+1+3i … warmup+3+3i that make up register word i.
	powers [rngLen][3]uint32
	// cooked is math/rand's rngCooked: the constants Seed XORs into each
	// word. init recovers them from seed 1's stream rather than copying
	// the table.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 0; n < warmup; n++ {
		p = mulmod(p, lehmerA)
	}
	for i := range powers {
		for k := range powers[i] {
			p = mulmod(p, lehmerA)
			powers[i][k] = uint32(p)
		}
	}

	// Invert seed 1's first rngLen draws into its initial register v. A
	// draw adds the feed and tap slots and stores the sum in the feed
	// slot, so each initial word is a draw minus a known term: the
	// earlier draw that wrote the tap slot, or an initial word recovered
	// first.
	var out, v [rngLen]int64
	src := rand.NewSource(1).(rand.Source64)
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	for j := firstFeed; j < rngLen; j++ {
		v[rngLen+firstFeed-1-j] = out[j] - out[j-rngTap]
	}
	for j := rngTap; j < firstFeed; j++ {
		v[firstFeed-1-j] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		v[firstFeed-1-j] = out[j] - v[rngLen-1-j]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ chainWord(1, i)
	}
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹−1 by Mersenne reduction:
// the product's low 31 bits and the rest sum to less than 2·(2³¹−1), so
// one conditional subtraction completes it.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// chainWord is register word i before the cooked constant: math/rand's
// Seed packs three consecutive chain values, from x₀, into one word.
func chainWord(x0 uint64, i int) int64 {
	pw := &powers[i]
	return int64(mulmod(x0, uint64(pw[0])))<<40 ^
		int64(mulmod(x0, uint64(pw[1])))<<20 ^
		int64(mulmod(x0, uint64(pw[2])))
}

// Source is math/rand's rand.Source64 generator, counting how many values
// have been drawn. It is not safe for concurrent use, matching math/rand
// sources; all the engines draw only from their single-threaded
// dispatch/collect passes.
type Source struct {
	seed int64
	// draws counts the values drawn since the last Seed. It also tracks
	// the lazy seed: the first rngTap draws compute the two initial words
	// they read, the next completes the register, and every later draw is
	// math/rand's.
	draws uint64
	x0    uint64 // the seed as the Lehmer chain's start
	tap   int
	feed  int
	// vec is the register, nil until the first draw that reads it. It is
	// held out of line so a short stream never pays for it.
	vec *[rngLen]int64
}

// New returns a counting source seeded with seed, producing the exact
// stream of rand.NewSource(seed).
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source, resetting the draw count with the stream.
// It is O(1): the register words are computed as draws first need them,
// and an allocated register is kept for the new stream to refill.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.tap = 0
	s.feed = firstFeed

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
}

// word is initial register word i of the current seed.
func (s *Source) word(i int) int64 { return chainWord(s.x0, i) ^ cooked[i] }

// Int63 implements rand.Source. Both entry points advance the generator
// one step, so each counts a single draw.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.draws++
	if s.draws <= rngTap+1 {
		if s.draws <= rngTap {
			return s.seedDraw()
		}
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// seedDraw is draw j < rngTap after a Seed. Its feed and tap slots,
// firstFeed-1-j and rngLen-1-j, still hold initial words, so it computes
// them rather than reading them. It stores the sum only in a register
// kept from an earlier stream; without one, fill recomputes it.
func (s *Source) seedDraw() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	x := s.word(s.feed) + s.word(s.tap)
	if s.vec != nil {
		s.vec[s.feed] = x
	}
	return uint64(x)
}

// fill completes the register at draw rngTap+1, the first draw to read a
// slot the seeding draws wrote. It stores the initial words they left
// unwritten, 0..feed-1 below the slots they wrote and firstFeed..rngLen-1
// above. A Source that had no register allocates one and rebuilds the
// slots in between: draw j wrote slot i = firstFeed-1-j from slots i and
// rngLen-1-j = i+rngTap, so slot i holds word(i)+word(i+rngTap).
func (s *Source) fill() {
	stored := s.vec != nil
	if !stored {
		s.vec = new([rngLen]int64)
	}
	for i := 0; i < s.feed; i++ {
		s.vec[i] = s.word(i)
	}
	for i := firstFeed; i < rngLen; i++ {
		s.vec[i] = s.word(i)
	}
	if !stored {
		for i := s.feed; i < firstFeed; i++ {
			s.vec[i] = s.word(i) + s.vec[i+rngTap]
		}
	}
}

// Float64 returns the value rand.New(s).Float64 would: Int63 scaled into
// [0, 1), drawing again in the rare case (about one draw in 2⁵⁴) that
// rounds up to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// NormFloat64 returns the value rand.New(s).NormFloat64 would: a standard
// normal sample from the ziggurat in normal.go, which reads the stream in
// math/rand's order.
func (s *Source) NormFloat64() float64 {
	for {
		if x, ok := s.normAccept(int32(s.Int63() >> 31)); ok {
			return x
		}
	}
}

// Float64s fills dst with the next len(dst) values of Float64, leaving the
// stream where that many Float64 calls would. Past the seeding draws it
// steps the register with its position in locals, a run of steps at a
// time between index wraps, so a block costs one call rather than one per
// value.
func (s *Source) Float64s(dst []float64) {
	i := 0
	for ; i < len(dst) && s.draws <= rngTap; i++ {
		dst[i] = s.Float64()
	}
	if i == len(dst) {
		return
	}
	vec, tap, feed, draws := s.vec, s.tap, s.feed, s.draws
	for i < len(dst) {
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		// The next m steps read slots tap-1, tap-2, … and update slots
		// feed-1, feed-2, …, with neither index wrapping, in the order
		// single steps take them: a slot the run updates and then reads
		// is read after its update, as it would be one step at a time.
		m := min(tap, feed, len(dst)-i)
		tv, fv := vec[tap-m:tap], vec[feed-m:feed]
		for k := m - 1; k >= 0; k-- {
			x := fv[k] + tv[k]
			fv[k] = x
			// A value that rounds up to 1 is overwritten by the next draw.
			f := float64(int64(uint64(x)&rngMask)) / (1 << 63)
			dst[i] = f
			if f < 1 {
				i++
			}
		}
		tap, feed, draws = tap-m, feed-m, draws+uint64(m)
	}
	s.tap, s.feed, s.draws = tap, feed, draws
}

// NormFloat64s fills dst with the next len(dst) values of NormFloat64,
// leaving the stream where that many NormFloat64 calls would. The
// rectangle cores, over 99 % of draws, run with the register position in
// locals; a draw past its core settles through normAccept.
func (s *Source) NormFloat64s(dst []float64) {
	for i := 0; i < len(dst); i++ {
		if s.draws <= rngTap {
			dst[i] = s.NormFloat64()
			continue
		}
		vec, tap, feed, draws := s.vec, s.tap, s.feed, s.draws
		var j int32
		for ; i < len(dst); i++ {
			tap--
			if tap < 0 {
				tap += rngLen
			}
			feed--
			if feed < 0 {
				feed += rngLen
			}
			x := vec[feed] + vec[tap]
			vec[feed] = x
			draws++
			j = int32(uint64(x) & rngMask >> 31)
			k := j & 0x7F
			if absInt32(j) >= kn[k] {
				break
			}
			dst[i] = float64(j) * float64(wn[k])
		}
		s.tap, s.feed, s.draws = tap, feed, draws
		if i == len(dst) {
			return
		}
		x, ok := s.normAccept(j)
		for !ok {
			x, ok = s.normAccept(int32(s.Int63() >> 31))
		}
		dst[i] = x
	}
}

// Pos returns the stream position: the number of values drawn since the
// last (re)seed. Together with the seed it identifies the stream state.
func (s *Source) Pos() uint64 { return s.draws }

// SeekTo rewinds the source to its seed and discards draws values, leaving
// the stream at exactly the position a fresh Source would reach after that
// many draws. Seeking is O(draws); checkpoints store positions, not
// generator internals, so the format stays independent of the register.
func (s *Source) SeekTo(draws uint64) {
	s.Seed(s.seed)
	for s.draws < draws {
		s.Uint64()
	}
}
