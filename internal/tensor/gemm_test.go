package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The GEMM oracle: the scalar loops each output element's operations are
// defined by, written out one element at a time. MatMulNT's dot product
// adds every term, zero or not; MatMulNN and AddMatMulTN skip a term whose
// scale from a is ±0, as MatVecT and AddOuterScaled do.

func oracleMatMulNT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for c := 0; c < a.Cols; c++ {
				s += a.Data[i*a.Cols+c] * b.Data[j*b.Cols+c]
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
}

func oracleMatMulNN(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				if av := a.Data[i*a.Cols+k]; av != 0 {
					s += av * b.Data[k*b.Cols+j]
				}
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
}

func oracleAddMatMulTN(dst, a, b *Matrix) {
	for m := 0; m < a.Cols; m++ {
		for j := 0; j < b.Cols; j++ {
			s := dst.Data[m*dst.Cols+j]
			for k := 0; k < a.Rows; k++ {
				if av := a.Data[k*a.Cols+m]; av != 0 {
					s += av * b.Data[k*b.Cols+j]
				}
			}
			dst.Data[m*dst.Cols+j] = s
		}
	}
}

// forBodies runs f once on each GEMM body this host can run: the portable
// one, then the packed one where the CPU has AVX2.
func forBodies(t testing.TB, f func(body string)) {
	t.Helper()
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = false
	f("portable")
	if haveAVX2 {
		useAVX2 = true
		f("avx2")
	}
}

// checkGEMMs runs the three GEMMs on a (m×k), bt (n×k), b (k×n) and at
// (k×m), next to their oracles, on every body, into destinations holding
// stale values (MatMulNT, MatMulNN) or init (AddMatMulTN), and requires
// equal bits.
func checkGEMMs(t *testing.T, name string, a, bt, b, at, init *Matrix) {
	t.Helper()
	m, n := a.Rows, b.Cols
	want := [3]*Matrix{NewMatrix(m, n), NewMatrix(m, n), init.Clone()}
	oracleMatMulNT(want[0], a, bt)
	oracleMatMulNN(want[1], a, b)
	oracleAddMatMulTN(want[2], at, b)
	forBodies(t, func(body string) {
		got := [3]*Matrix{NewMatrix(m, n), NewMatrix(m, n), init.Clone()}
		got[0].Data.Fill(99)
		got[1].Data.Fill(99)
		refBackend{}.MatMulNT(got[0], a, bt)
		refBackend{}.MatMulNN(got[1], a, b)
		refBackend{}.AddMatMulTN(got[2], at, b)
		for i, kernel := range []string{"MatMulNT", "MatMulNN", "AddMatMulTN"} {
			checkBits(t, fmt.Sprintf("%s %s %s", name, body, kernel), got[i].Data, want[i].Data)
		}
	})
}

// TestGEMMs holds the three GEMMs to the oracle on both bodies, on shapes
// across the four-, eight- and sixteen-wide passes and their tails, with
// reductions shorter and longer than one chunk (kChunk), inputs 0 %, 50 %
// and 100 % zero (+0 and −0), with and without ±Inf, and one NaN.
func TestGEMMs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{0, 1, 3, 20} {
		for _, k := range []int{0, 1, 5, kChunk, kChunk + 3, 2*kChunk + 7} {
			for _, n := range []int{1, 3, 4, 5, 8, 12, 15, 16, 17, 20, 28, 33, 64} {
				for _, zeros := range []float64{0, 0.5, 1} {
					for _, inf := range []bool{false, true} {
						mats := make([]*Matrix, 5)
						for i, sh := range [][2]int{{m, k}, {n, k}, {k, n}, {k, m}, {m, n}} {
							mats[i] = NewMatrix(sh[0], sh[1])
							fillKernelInput(rng, mats[i].Data, zeros, inf)
						}
						if inf && len(mats[1].Data) > 0 {
							mats[1].Data[rng.Intn(len(mats[1].Data))] = math.NaN()
						}
						checkGEMMs(t, fmt.Sprintf("m=%d k=%d n=%d zeros=%v inf=%v", m, k, n, zeros, inf),
							mats[0], mats[1], mats[2], mats[3], mats[4])
					}
				}
			}
		}
	}
}

// FuzzGEMMs decodes the three dimensions (m < 24, k < 150, n < 40) and
// then the operands' values from the fuzz bytes, one byte per value and
// cycling through them, with fuzzValue's coding. It holds the three GEMMs
// to the oracle on both bodies.
func FuzzGEMMs(f *testing.F) {
	f.Add([]byte{20, 64, 12, 100, 70, 0, 90, 110, 40, 130, 150, 64, 170, 190, 210, 230, 250})
	f.Add([]byte{5, 131, 33, 200, 0, 40, 0, 77, 65, 66, 1, 33, 2, 99, 180})
	f.Add([]byte{1, 1, 17, 64})
	f.Add([]byte{3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := int(data[0]%24), int(data[1]%150), int(data[2]%40)
		vals, next := data[3:], 0
		fill := func(rows, cols int) *Matrix {
			x := NewMatrix(rows, cols)
			for i := range x.Data {
				if len(vals) > 0 {
					x.Data[i] = fuzzValue(vals[next%len(vals)])
					next++
				}
			}
			return x
		}
		checkGEMMs(t, fmt.Sprintf("m=%d k=%d n=%d", m, k, n),
			fill(m, k), fill(n, k), fill(k, n), fill(k, m), fill(m, n))
	})
}

// BenchmarkMinibatch runs one sync-train-shaped minibatch — 20 samples
// through a 32→64→64→12 network, forward and backward, backprop stopping
// at the first layer — through the kernels: sample by sample through
// MatVec, MatVecT and AddOuterScaled ("per-sample"), and through the three
// GEMMs on each body. Half the gradients are zero, as after a ReLU.
func BenchmarkMinibatch(b *testing.B) {
	const batch = 20
	widths := []int{32, 64, 64, 12}
	rng := rand.New(rand.NewSource(1))
	layers := len(widths) - 1
	w, gw := make([]*Matrix, layers), make([]*Matrix, layers)
	act, grad := make([]*Matrix, layers+1), make([]*Matrix, layers+1)
	for l := 0; l < layers; l++ {
		w[l], gw[l] = NewMatrix(widths[l+1], widths[l]), NewMatrix(widths[l+1], widths[l])
		fillKernelInput(rng, w[l].Data, 0, false)
	}
	for l, width := range widths {
		act[l], grad[l] = NewMatrix(batch, width), NewMatrix(batch, width)
		fillKernelInput(rng, act[l].Data, 0, false)
		fillKernelInput(rng, grad[l].Data, 0.5, false)
	}
	row := func(x *Matrix, i int) Vector { return x.Data[i*x.Cols:][:x.Cols] }
	be := refBackend{}
	b.Run("per-sample", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < batch; i++ {
				for l := 0; l < layers; l++ {
					be.MatVec(w[l], row(act[l+1], i), row(act[l], i))
				}
				for l := layers - 1; l >= 0; l-- {
					be.AddOuterScaled(gw[l], 1, row(grad[l+1], i), row(act[l], i))
					if l > 0 {
						be.MatVecT(w[l], row(grad[l], i), row(grad[l+1], i))
					}
				}
			}
		}
	})
	forBodies(b, func(body string) {
		b.Run("gemm-"+body, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for l := 0; l < layers; l++ {
					be.MatMulNT(act[l+1], act[l], w[l])
				}
				for l := layers - 1; l >= 0; l-- {
					be.AddMatMulTN(gw[l], grad[l+1], act[l])
					if l > 0 {
						be.MatMulNN(grad[l], grad[l+1], w[l])
					}
				}
			}
		})
	})
}
