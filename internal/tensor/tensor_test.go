package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot on mismatched lengths did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestAddScaled(t *testing.T) {
	v := Vector{1, 1, 1}
	v.AddScaled(2, Vector{1, 2, 3})
	want := Vector{3, 5, 7}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("AddScaled = %v, want %v", v, want)
		}
	}
}

func TestScaledDiff(t *testing.T) {
	dst := Vector{9, 9, 9}
	ScaledDiff(dst, 2, Vector{4, 5, 6}, Vector{1, 2, 4})
	want := Vector{6, 6, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ScaledDiff = %v, want %v", dst, want)
		}
	}
	// Aliasing dst with a is explicitly allowed (in-place delta).
	a := Vector{4, 5, 6}
	ScaledDiff(a, 1, a, Vector{1, 1, 1})
	for i, w := range (Vector{3, 4, 5}) {
		if a[i] != w {
			t.Fatalf("aliased ScaledDiff = %v", a)
		}
	}
}

func TestScaledDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaledDiff on mismatched lengths did not panic")
		}
	}()
	ScaledDiff(Vector{1}, 1, Vector{1, 2}, Vector{1})
}

func TestAddScaledDiff(t *testing.T) {
	v := Vector{1, 1, 1}
	v.AddScaledDiff(3, Vector{2, 3, 4}, Vector{1, 1, 1})
	want := Vector{4, 7, 10}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("AddScaledDiff = %v, want %v", v, want)
		}
	}
}

func TestAddScaledDiffMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddScaledDiff on mismatched lengths did not panic")
		}
	}()
	Vector{1, 2}.AddScaledDiff(1, Vector{1, 2}, Vector{1})
}

func TestAddWeighted(t *testing.T) {
	dst := Vector{1, 2}
	AddWeighted(dst, []float64{0.5, 2}, []Vector{{2, 4}, {1, 1}})
	want := Vector{4, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AddWeighted = %v, want %v", dst, want)
		}
	}
	// Empty term list is a no-op, not a panic.
	AddWeighted(dst, nil, nil)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("empty AddWeighted modified dst: %v", dst)
		}
	}
	// Matches the equivalent sequence of axpys bit-for-bit.
	rng := rand.New(rand.NewSource(42))
	x := NewVector(64)
	RandnInto(x, 1, rng)
	ref := x.Clone()
	vs := make([]Vector, 3)
	ws := []float64{0.25, -1.5, 3}
	for i := range vs {
		vs[i] = NewVector(64)
		RandnInto(vs[i], 1, rng)
	}
	AddWeighted(x, ws, vs)
	for k, v := range vs {
		ref.AddScaled(ws[k], v)
	}
	for i := range ref {
		if x[i] != ref[i] {
			t.Fatalf("AddWeighted diverges from axpy sequence at %d", i)
		}
	}
}

func TestAddWeightedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddWeighted with mismatched counts did not panic")
		}
	}()
	AddWeighted(Vector{1}, []float64{1, 2}, []Vector{{1}})
}

func TestScaleAndNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm2(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := v.Norm1(); got != 7 {
		t.Fatalf("Norm1 = %v, want 7", got)
	}
	if got := v.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	v.Scale(2)
	if v[0] != 6 || v[1] != -8 {
		t.Fatalf("Scale = %v", v)
	}
}

func TestArgmax(t *testing.T) {
	cases := []struct {
		v    Vector
		want int
	}{
		{Vector{}, -1},
		{Vector{1}, 0},
		{Vector{1, 3, 2}, 1},
		{Vector{5, 5, 5}, 0}, // ties resolve low
		{Vector{-2, -1, -3}, 1},
	}
	for _, c := range cases {
		if got := c.v.Argmax(); got != c.want {
			t.Errorf("Argmax(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	src := Vector{1, 2, 3, 4}
	dst := NewVector(4)
	Softmax(dst, src)
	var sum float64
	for _, x := range dst {
		if x <= 0 {
			t.Fatalf("softmax produced non-positive probability %v", x)
		}
		sum += x
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
	// Monotone: larger logits -> larger probabilities.
	for i := 1; i < len(dst); i++ {
		if dst[i] <= dst[i-1] {
			t.Fatalf("softmax not monotone: %v", dst)
		}
	}
}

func TestSoftmaxStableForLargeLogits(t *testing.T) {
	src := Vector{1000, 1001, 999}
	dst := NewVector(3)
	Softmax(dst, src)
	for _, x := range dst {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("softmax overflow on large logits: %v", dst)
		}
	}
	if dst.Argmax() != 1 {
		t.Fatalf("softmax argmax = %d, want 1", dst.Argmax())
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	v := Vector{0, 0}
	Softmax(v, v)
	if !almostEqual(v[0], 0.5, 1e-12) || !almostEqual(v[1], 0.5, 1e-12) {
		t.Fatalf("in-place softmax = %v, want [0.5 0.5]", v)
	}
}

// TestSoftmaxEdgeCases pins the documented degenerate-input semantics:
// empty input is a no-op, a single element always yields probability 1,
// an all-(-Inf) row yields the uniform distribution (the historical 0/0
// behavior produced NaN), and any NaN input poisons the whole output —
// including when it hides among -Inf entries.
func TestSoftmaxEdgeCases(t *testing.T) {
	t.Run("Empty", func(t *testing.T) {
		Softmax(Vector{}, Vector{}) // must not panic
	})
	t.Run("SingleElement", func(t *testing.T) {
		for _, x := range []float64{0, -1e300, 1e300, math.Inf(-1)} {
			dst := NewVector(1)
			Softmax(dst, Vector{x})
			if dst[0] != 1 {
				t.Errorf("Softmax([%v]) = %v, want [1]", x, dst)
			}
		}
	})
	t.Run("AllNegInf", func(t *testing.T) {
		inf := math.Inf(-1)
		dst := NewVector(4)
		dst.Fill(99) // stale values must be overwritten
		Softmax(dst, Vector{inf, inf, inf, inf})
		for i, p := range dst {
			if !almostEqual(p, 0.25, 1e-15) {
				t.Fatalf("Softmax(all -Inf)[%d] = %v, want 0.25 (full: %v)", i, p, dst)
			}
		}
	})
	t.Run("NaNPropagates", func(t *testing.T) {
		cases := []Vector{
			{math.NaN(), 0, 1},
			{0, math.NaN(), 1},
			{0, 1, math.NaN()},
			{math.Inf(-1), math.NaN(), math.Inf(-1)}, // NaN among -Inf: not uniform
			{math.NaN()},
		}
		for _, src := range cases {
			dst := NewVector(len(src))
			Softmax(dst, src)
			for i, p := range dst {
				if !math.IsNaN(p) {
					t.Fatalf("Softmax(%v)[%d] = %v, want NaN (full: %v)", src, i, p, dst)
				}
			}
		}
	})
	t.Run("PosInfDominates", func(t *testing.T) {
		// A single +Inf logit takes all the mass: exp(Inf-Inf) is NaN only
		// for the ties, so pin the single-winner case that training can hit
		// after divergence.
		dst := NewVector(3)
		Softmax(dst, Vector{0, math.Inf(1), 0})
		if !(dst[1] == 1 && dst[0] == 0 && dst[2] == 0) {
			t.Fatalf("Softmax([0 +Inf 0]) = %v, want [0 1 0]", dst)
		}
	})
}

// The oracle: the sequential scalar loops the three matrix–vector kernels
// were first written as, kept verbatim. The shipped kernels interleave
// rows, but must give every output element these operations in this
// order, so their bits must match.

func oracleMatVec(m *Matrix, dst, x Vector) {
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s float64
		for c, w := range row {
			s += w * x[c]
		}
		dst[r] = s
	}
}

func oracleMatVecT(m *Matrix, dst, x Vector) {
	dst.Zero()
	for r := 0; r < m.Rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, w := range row {
			dst[c] += w * xr
		}
	}
}

func oracleAddOuterScaled(m *Matrix, alpha float64, a, b Vector) {
	for r := 0; r < m.Rows; r++ {
		ar := alpha * a[r]
		if ar == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c := range row {
			row[c] += ar * b[c]
		}
	}
}

// checkBits reports the first output where got departs from want: every
// non-NaN output must have want's exact bits (so +0 and −0 differ), and
// NaN must appear exactly where want has it. NaN payloads are not
// compared: on x86 the payload of Inf−Inf or NaN·x depends on which
// operand order the compiler picked, which no kernel contract fixes.
func checkBits(t *testing.T, name string, got, want Vector) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.IsNaN(g) != math.IsNaN(w) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: output %d = %v (%#x), oracle %v (%#x)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
			return
		}
	}
}

// staleVector returns a destination holding values a kernel must overwrite.
func staleVector(n int) Vector { v := NewVector(n); v.Fill(99); return v }

// checkMatVec, checkMatVecT and checkAddOuterScaled run one kernel next to
// its oracle loop, into destinations holding stale values, and require
// equal bits.
func checkMatVec(t *testing.T, name string, m *Matrix, x Vector) {
	t.Helper()
	got, want := staleVector(m.Rows), staleVector(m.Rows)
	m.MatVec(got, x)
	oracleMatVec(m, want, x)
	checkBits(t, name+" MatVec", got, want)
}

func checkMatVecT(t *testing.T, name string, m *Matrix, a Vector) {
	t.Helper()
	got, want := staleVector(m.Cols), staleVector(m.Cols)
	m.MatVecT(got, a)
	oracleMatVecT(m, want, a)
	checkBits(t, name+" MatVecT", got, want)
}

func checkAddOuterScaled(t *testing.T, name string, m *Matrix, alpha float64, a, b Vector) {
	t.Helper()
	gotM, wantM := m.Clone(), m.Clone()
	gotM.AddOuterScaled(alpha, a, b)
	oracleAddOuterScaled(wantM, alpha, a, b)
	checkBits(t, name+" AddOuterScaled", gotM.Data, wantM.Data)
}

// fillKernelInput fills v with normal draws, replacing a share zeros of
// them by +0 or −0 and, with inf, one in eight of the rest by ±Inf.
func fillKernelInput(rng *rand.Rand, v Vector, zeros float64, inf bool) {
	for i := range v {
		switch {
		case rng.Float64() < zeros:
			v[i] = math.Copysign(0, rng.Float64()-0.5)
		case inf && rng.Intn(8) == 0:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			v[i] = rng.NormFloat64()
		}
	}
}

// forKernelCases calls check on every shape around the four-row block
// (0–13 rows) and on the ladder workloads' Dense weight shapes, each with
// a matrix m, a column-length vector x and a row-length vector a that are
// 0 %, 50 % and 100 % zero (+0 and −0), with and without ±Inf mixed in.
// The draws are seeded, so every caller sees the same cases.
func forKernelCases(check func(name string, m *Matrix, x, a Vector, zeros float64, inf bool, rng *rand.Rand)) {
	var shapes [][2]int
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13} {
		for _, cols := range []int{1, 3, 8} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	shapes = append(shapes, [2]int{80, 48}, [2]int{80, 80}, [2]int{20, 80},
		[2]int{32, 32}, [2]int{12, 32}, [2]int{24, 32}, [2]int{12, 24})
	rng := rand.New(rand.NewSource(31))
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		for _, zeros := range []float64{0, 0.5, 1} {
			for _, inf := range []bool{false, true} {
				m := NewMatrix(rows, cols)
				fillKernelInput(rng, m.Data, 0, inf)
				x, a := NewVector(cols), NewVector(rows)
				fillKernelInput(rng, x, zeros, inf)
				fillKernelInput(rng, a, zeros, inf)
				check(fmt.Sprintf("%dx%d zeros=%v inf=%v", rows, cols, zeros, inf), m, x, a, zeros, inf, rng)
			}
		}
	}
}

// TestMatVec holds MatVec to the oracle's bits on every forKernelCases
// case. It also pins ref.go's claim that ref's MatMulNT reduces each
// output row as MatVec does: row i of X·Wᵀ is bit-equal to W·x_i.
func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, Vector{1, 2, 3, 4, 5, 6})
	dst := NewVector(2)
	m.MatVec(dst, Vector{1, 0, -1})
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
	forKernelCases(func(name string, m *Matrix, x, _ Vector, zeros float64, inf bool, rng *rand.Rand) {
		checkMatVec(t, name, m, x)

		batch := NewMatrix(3, m.Cols)
		fillKernelInput(rng, batch.Data, zeros, inf)
		out := NewMatrix(3, m.Rows)
		refBackend{}.MatMulNT(out, batch, m)
		for i := 0; i < batch.Rows; i++ {
			want := NewVector(m.Rows)
			m.MatVec(want, batch.Data[i*batch.Cols:(i+1)*batch.Cols])
			checkBits(t, fmt.Sprintf("%s MatMulNT row %d", name, i), out.Data[i*out.Cols:(i+1)*out.Cols], want)
		}
	})
}

// TestMatVecT holds MatVecT to the oracle's bits on every forKernelCases
// case, so rows with a zero scale are skipped exactly where the oracle
// skips them.
func TestMatVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, Vector{1, 2, 3, 4, 5, 6})
	dst := NewVector(3)
	m.MatVecT(dst, Vector{1, 1})
	if want := (Vector{5, 7, 9}); dst[0] != want[0] || dst[1] != want[1] || dst[2] != want[2] {
		t.Fatalf("MatVecT = %v, want %v", dst, want)
	}
	forKernelCases(func(name string, m *Matrix, _, a Vector, _ float64, _ bool, _ *rand.Rand) {
		checkMatVecT(t, name, m, a)
	})
}

// TestAddOuterScaled holds AddOuterScaled to the oracle's bits on every
// forKernelCases case.
func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(2, Vector{1, 2}, Vector{3, 4})
	want := [][]float64{{6, 8}, {12, 16}}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if got := m.Data[r*m.Cols+c]; got != want[r][c] {
				t.Fatalf("AddOuterScaled(%d,%d) = %v, want %v", r, c, got, want[r][c])
			}
		}
	}
	forKernelCases(func(name string, m *Matrix, x, a Vector, _ float64, _ bool, _ *rand.Rand) {
		checkAddOuterScaled(t, name, m, 0.3, a, x)
	})
}

// FuzzRefKernels decodes a shape, alpha, a matrix and the two vectors from
// the fuzz bytes, one byte per value: an eighth of the codes are +0, an
// eighth −0, three are NaN and ±Inf, the rest finite values. It checks the
// three matrix–vector kernels against the oracle; every decoded shape is
// one the kernels accept, so any panic is a failure too.
func FuzzRefKernels(f *testing.F) {
	f.Add([]byte{5, 3, 100, 70, 90, 110, 130, 150, 170, 190, 210, 230, 250, 71, 91, 111, 131, 151, 171})
	f.Add([]byte{13, 8, 200, 0, 40, 0, 77, 64, 65, 66, 1, 33, 2, 99, 180})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := int(data[0]%32), int(data[1]%32)
		data = data[2:]
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return fuzzValue(b)
		}
		alpha := next()
		m := NewMatrix(rows, cols)
		x, a := NewVector(cols), NewVector(rows)
		for _, v := range []Vector{m.Data, x, a} {
			for i := range v {
				v[i] = next()
			}
		}
		name := fmt.Sprintf("%dx%d", rows, cols)
		checkMatVec(t, name, m, x)
		checkMatVecT(t, name, m, a)
		checkAddOuterScaled(t, name, m, alpha, a, x)
	})
}

// fuzzValue decodes one fuzz byte: an eighth of the codes are +0, an
// eighth −0, three are NaN and ±Inf, the rest finite values.
func fuzzValue(b byte) float64 {
	switch {
	case b < 32:
		return 0
	case b < 64:
		return math.Copysign(0, -1)
	case b == 64:
		return math.NaN()
	case b == 65:
		return math.Inf(1)
	case b == 66:
		return math.Inf(-1)
	}
	return (float64(b) - 160) / 7
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Data[0] = 1
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestXavierIntoBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVector(1000)
	XavierInto(v, 30, 10, rng)
	limit := math.Sqrt(6.0 / 40.0)
	for _, x := range v {
		if math.Abs(x) > limit {
			t.Fatalf("Xavier sample %v exceeds limit %v", x, limit)
		}
	}
	if v.Norm2() == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}

func TestRandnIntoDeterministic(t *testing.T) {
	a, b := NewVector(16), NewVector(16)
	RandnInto(a, 1, rand.New(rand.NewSource(7)))
	RandnInto(b, 1, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandnInto is not deterministic under a fixed seed")
		}
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotPropertyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		v, w := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip degenerate inputs
			}
		}
		return almostEqual(v.Dot(w), w.Dot(v), 1e-6*(1+v.Norm2()*w.Norm2()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite input.
func TestSoftmaxPropertyQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			if math.Abs(x) > 500 {
				raw[i] = math.Mod(x, 500)
			}
		}
		dst := NewVector(len(raw))
		Softmax(dst, Vector(raw))
		var sum float64
		for _, p := range dst {
			if p < 0 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVecT is the adjoint of MatVec: <Av, w> == <v, Aᵀw>.
func TestAdjointPropertyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 50; iter++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		RandnInto(m.Data, 1, rng)
		v, w := NewVector(cols), NewVector(rows)
		RandnInto(v, 1, rng)
		RandnInto(w, 1, rng)
		av := NewVector(rows)
		m.MatVec(av, v)
		atw := NewVector(cols)
		m.MatVecT(atw, w)
		if !almostEqual(av.Dot(w), v.Dot(atw), 1e-9) {
			t.Fatalf("adjoint identity violated: %v vs %v", av.Dot(w), v.Dot(atw))
		}
	}
}
