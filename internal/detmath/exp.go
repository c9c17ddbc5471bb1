// Package detmath holds the transcendental functions whose bits the
// determinism contract depends on, written so that every host computes the
// same result.
//
// The standard library's math.Exp is assembly on amd64 with two paths: one
// fused multiply-add path taken on CPUs with FMA, and one of separate
// multiplies and adds taken elsewhere. The two round differently, so a
// golden recorded on one host breaks on the other; arm64 runs a third
// algorithm. Exp here replays the FMA path in Go: the fused steps call
// math.FMA, which is correctly rounded on every host (in hardware where it
// exists, in software elsewhere), and every other product is wrapped in
// float64(…) so that no compiler fuses it. It therefore equals math.Exp on
// an amd64 CPU with FMA bit for bit, which is where the repository's
// goldens were recorded, and yields those bits everywhere else too.
package detmath

import "math"

// The constants of exp_amd64.s: ln 2 split into an upper part with a short
// mantissa and the remainder, the overflow threshold, and the Taylor
// coefficients 1/k! of the reduced argument's polynomial.
const (
	log2e    = 1.4426950408889634073599246810018920
	ln2U     = 0.69314718055966295651160180568695068359375
	ln2L     = 0.28235290563031577122588448175013436025525412068e-12
	overflow = 7.09782712893384e+02

	c2 = 0.5
	c3 = 1.6666666666666666667e-1
	c4 = 4.1666666666666666667e-2
	c5 = 8.3333333333333333333e-3
	c6 = 1.3888888888888888889e-3
	c7 = 1.9841269841269841270e-4
	c8 = 2.4801587301587301587e-5

	posInf = 0x7FF0000000000000
	negInf = 0xFFF0000000000000
)

// Exp returns e**x, bit for bit what math.Exp returns on an amd64 CPU with
// FMA: +Inf for x above the overflow threshold or x = +Inf, 0 for x = -Inf
// or deep underflow, and x itself for NaN.
func Exp(x float64) float64 {
	b := math.Float64bits(x)
	if b&^(1<<63) >= posInf {
		if b == negInf {
			return 0
		}
		return x // NaN or +Inf
	}
	if x > overflow {
		return math.Inf(1)
	}
	// CVTSD2SL rounds half to even and yields math.MinInt32 when the value
	// does not fit, which the underflow test below sends to 0.
	k := math.RoundToEven(float64(x * log2e))
	e := int32(math.MinInt32)
	if k > math.MinInt32 {
		e = int32(k)
	}
	fe := float64(e)
	r := math.FMA(-fe, ln2U, x)
	r = math.FMA(-fe, ln2L, r)
	r = float64(r * 0.0625)

	p := math.FMA(c8, r, c7)
	p = math.FMA(p, r, c6)
	p = math.FMA(p, r, c5)
	p = math.FMA(p, r, c4)
	p = math.FMA(p, r, c3)
	p = math.FMA(p, r, c2)
	p = math.FMA(p, r, 1)
	// Four squarings of the reduced argument's expm1, (e^r-1)(e^r+1) =
	// e^2r-1, undo the 1/16; the last adds the 1 back in its FMA.
	r = float64(r * p)
	t := r + 2
	r = float64(r * t)
	t = r + 2
	r = float64(r * t)
	t = r + 2
	r = float64(r * t)
	t = r + 2
	r = math.FMA(r, t, 1)

	// Scale by 2**e, through a subnormal scale in two steps when 2**e
	// itself is not a normal number.
	biased := e + 0x3FF
	switch {
	case biased >= 0x7FF:
		return math.Inf(1)
	case biased > 0:
		return float64(r * math.Float64frombits(uint64(biased)<<52))
	case biased < -52:
		return 0
	}
	r = float64(r * math.Float64frombits(uint64(biased+0x3FE)<<52))
	return float64(r * math.Float64frombits(1<<52))
}
