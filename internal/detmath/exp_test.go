package detmath

import (
	"math"
	"math/rand"
	"testing"
)

// expTable holds input bits → result bits of math.Exp on an amd64 CPU with
// FMA, the host the goldens were recorded on: ±0, ±Inf, NaN payloads, the
// overflow threshold and its neighbour, the subnormal range and the
// underflow edge, ±MaxFloat64, tiny arguments, and random arguments in
// [-30, 30] and [-745, 745]. Several rows, -0.18902358546064923 among
// them, end one unit lower than the non-FMA path rounds them. The last
// seven each change when one of the last four fused steps (the
// polynomial's c3, c2 and 1 terms, the final squaring) is split into a
// rounded multiply and an add; splitting one of the first six changed no
// result in five million random arguments each.
var expTable = [][2]uint64{
	{0x0000000000000000, 0x3ff0000000000000},
	{0x8000000000000000, 0x3ff0000000000000},
	{0x7ff0000000000000, 0x7ff0000000000000},
	{0xfff0000000000000, 0x0000000000000000},
	{0x7ff8000000000001, 0x7ff8000000000001},
	{0x7ff8000000000123, 0x7ff8000000000123},
	{0xfff4000000000001, 0xfff4000000000001},
	{0x3ff0000000000000, 0x4005bf0a8b145769},
	{0xbff0000000000000, 0x3fd78b56362cef38},
	{0x3fe0000000000000, 0x3ffa61298e1e069c},
	{0xbfc831ecc2dcf278, 0x3fea7d112f3187b3},
	{0x40862e42fefa39ef, 0x7ff0000000000000},
	{0x40862e42fefa39f0, 0x7ff0000000000000},
	{0x40862d999999999a, 0x7ff0000000000000},
	{0x40862e3d70a3d70a, 0x7ff0000000000000},
	{0xc086231eb851eb85, 0x00101a5ff6ed496b},
	{0xc086233333333333, 0x000ff15b469edf89},
	{0xc08628a3d70a3d71, 0x000813af40859959},
	{0xc086800000000000, 0x0000000993b4dc95},
	{0xc08743851eb851ec, 0x0000000000000001},
	{0xc0874910d52d3051, 0x0000000000000001},
	{0xc0874910d52d3052, 0x0000000000000000},
	{0xc08749999999999a, 0x0000000000000000},
	{0xc087500000000000, 0x0000000000000000},
	{0xfe37e43c8800759c, 0x0000000000000000},
	{0x7e37e43c8800759c, 0x7ff0000000000000},
	{0x7fefffffffffffff, 0x7ff0000000000000},
	{0xffefffffffffffff, 0x0000000000000000},
	{0x0000000000000001, 0x3ff0000000000000},
	{0x8000000000000001, 0x3ff0000000000000},
	{0x01a56e1fc2f8f359, 0x3ff0000000000000},
	{0x0000000000000003, 0x3ff0000000000000},
	{0x3c670ef54646d497, 0x3ff0000000000000},
	{0xbc670ef54646d497, 0x3ff0000000000000},
	{0x3fd62e42fefa39ef, 0x3ff6a09e667f3bcc},
	{0x3fe62e42fefa39ef, 0x4000000000000000},
	{0xbfe62e42fefa39ef, 0x3fe0000000000000},
	{0x4000000000000000, 0x401d8e64b8d4ddae},
	{0x4024000000000000, 0x40d5829dcf950560},
	{0xc024000000000000, 0x3f07cd79b5647c9b},
	{0x4059000000000000, 0x48f3494a9b171bf5},
	{0xc059000000000000, 0x36ea8c1f14e2af5d},
	{0x4085e00000000000, 0x7f0d945df4f8ec8e},
	{0xc085e00000000000, 0x00d14f2b0fb9307f},
	{0xbfe0000000000000, 0x3fe368b2fc6f960a},
	{0x3e501b2b29a4692b, 0x3ff000000406cacb},
	{0x400a000000000000, 0x4039ca53b781114b},
	{0xc00a000000000000, 0x3fa3da368521902d},
	{0x403421c82442882b, 0x41c07fa9cad9a41a},
	{0x402248df42258589, 0x40c23f3f005c1240},
	{0x400f8e64a9ddc087, 0x4049d3731437f4b4},
	{0x403763c3176bedf0, 0x420accf9904467da},
	{0xc030784730a9d756, 0x3e72e2286c410392},
	{0xc033d1cb15d5bb61, 0x3e25351a85d8a03a},
	{0xc0141940f7a038ee, 0x3f7aed235ad1a128},
	{0xc033e7eea451eb9d, 0x3e237352c06b4edc},
	{0xc0162c3f9bfc9746, 0x3f70080f931956af},
	{0x403372a7e8f5b08e, 0x41b0a61c42cb7aa7},
	{0x40380d4aa137b247, 0x4219fc0fa971052e},
	{0xc03c7c934c9d1a8b, 0x3d5de89d35c1d9a9},
	{0xc0341457a0ae6b86, 0x3e205a4c864e670b},
	{0xc03302591069cd21, 0x3e37d819381fbb76},
	{0xc033e889df07eaec, 0x3e23678b0a080c3c},
	{0xc0243bcb988d742a, 0x3f052dd106669685},
	{0x4022ba60d992fbe2, 0x40c6c6964b6b910d},
	{0xc0346c42f0dd9f04, 0x3e1732ef6d0a81ef},
	{0x402f410919f58c3e, 0x415758435cbbb914},
	{0x402d0bc8004619af, 0x413ef57007f4d5ff},
	{0xc033518b35549cb6, 0x3e317fe756a1926b},
	{0xc005d45f38f62974, 0x3fb0b7c882237b63},
	{0x4030f81e36ad2af7, 0x417656672d61cf46},
	{0x40087d37c709bffc, 0x40355a174226bfcc},
	{0xc07e94d715a19f64, 0x13d0faaaeca430e7},
	{0xc07f6c7c3f51397c, 0x1298f4b22229c715},
	{0xc0869722cda59f5d, 0x0000000087fc33a6},
	{0xc071ce6342478c9d, 0x263f800d496b979a},
	{0xc0564caf3bc1834e, 0x37e3e4aae829a99c},
	{0xc047a9cd19dcf37f, 0x3baa651b1494c189},
	{0x405d8ac731ec1bc6, 0x4a9654bc87add323},
	{0xc06adc0faabb7c14, 0x2c8ff577c39c676c},
	{0xc03f7e481003b9ac, 0x3d17aab16ac93d9b},
	{0x406f3c636c9e32c5, 0x5676ccaed3064391},
	{0xc02f4f88cc33a358, 0x3e8551da5bcf2634},
	{0xc01c5863a37e8f3a, 0x3f4b68d5cc3079da},
	{0x403f92bc8e51f6da, 0x42c76ee85d210822},
	{0xc01fc0e35b9f4e1b, 0x3f3761eb12998845},
	{0xc0115e5e0c09e267, 0x3f8aa42d789a4991},
}

func TestExpTable(t *testing.T) {
	for _, row := range expTable {
		x := math.Float64frombits(row[0])
		if got := math.Float64bits(Exp(x)); got != row[1] {
			t.Errorf("Exp(%v) [%#016x] = %#016x, want %#016x", x, row[0], got, row[1])
		}
	}
}

// hostExpFused reports whether this process's math.Exp takes the FMA path,
// by one input the two amd64 paths round apart.
func hostExpFused() bool {
	return math.Float64bits(math.Exp(-0.18902358546064923)) == 0x3fea7d112f3187b3
}

// TestExpMatchesFusedHost holds Exp to math.Exp over random arguments,
// full-range bit patterns and the edges, on a host whose math.Exp is the
// FMA path it replays; elsewhere the table above is the whole check.
func TestExpMatchesFusedHost(t *testing.T) {
	if !hostExpFused() {
		t.Skip("math.Exp does not take the amd64 FMA path on this host")
	}
	rng := rand.New(rand.NewSource(1))
	n := 400_000
	if testing.Short() {
		n = 40_000
	}
	check := func(x float64) {
		if got, want := math.Float64bits(Exp(x)), math.Float64bits(math.Exp(x)); got != want {
			t.Fatalf("Exp(%v) [%#016x] = %#016x, math.Exp %#016x", x, math.Float64bits(x), got, want)
		}
	}
	for i := 0; i < n; i++ {
		check((rng.Float64()*2 - 1) * 750)
		check(rng.NormFloat64())
		check(math.Float64frombits(rng.Uint64()))
	}
	for x := -746.0; x <= -707; x += 1.0 / 64 {
		check(x)
		check(math.Nextafter(x, 0))
	}
}

// expSink keeps BenchmarkExp's calls from being optimized away.
var expSink float64

// BenchmarkExp times Exp against this host's math.Exp on arguments in
// [-20, 0], Softmax's range.
func BenchmarkExp(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = -rng.Float64() * 20
	}
	for _, bc := range []struct {
		name string
		exp  func(float64) float64
	}{{"detmath", Exp}, {"math", math.Exp}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expSink += bc.exp(xs[i&1023])
			}
		})
	}
}
