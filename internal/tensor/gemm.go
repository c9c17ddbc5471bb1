package tensor

import "math"

// The GEMM bodies behind refBackend's MatMulNT, MatMulNN and AddMatMulTN.
// Each output element gets the operations of the matrix–vector kernel a
// per-sample loop would run, in the same order; only which independent
// outputs run side by side differs between the two bodies. On amd64 hosts
// with AVX2 (haveAVX2), axpysAVX2 holds four outputs per 256-bit register
// and up to sixteen per pass, and gives each one VMULPD and one VADDPD per
// term — never a fused multiply-add, which would round once instead of
// twice. Elsewhere the portable bodies run the matrix–vector kernels'
// four-outputs-per-pass loops. The portable bodies are also the oracle
// the packed ones are tested against.

// useAVX2 selects the packed bodies. It is haveAVX2 except while this
// package's tests run the portable bodies on an AVX2 host.
var useAVX2 = haveAVX2

// kChunk bounds how many terms one axpysAVX2 call sums: the compacted
// scales and offsets, and MatMulNT's transposed panel of b, are stack
// arrays of this many rows. A longer reduction runs in chunks, each
// continuing the sums the previous one left in dst.
const kChunk = 64

// ntPanel is how many rows of b one MatMulNT panel transposes: sixteen
// outputs, four packed lanes, per pass.
const ntPanel = 16

// terms is the stack scratch of one packed GEMM call: a chunk's scales and
// the element offsets of the rows they scale.
type terms struct {
	s   [kChunk]float64
	off [kChunk]int
}

// matMulNT sets dst = a·bᵀ. Each dst[i,j] is the sequential dot product
// ((0 + a[i,0]·b[j,0]) + a[i,1]·b[j,1]) + …, exactly as MatVec forms
// (b·a_i)[j].
func matMulNT(dst, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows
	if !useAVX2 {
		for i := 0; i < m; i++ {
			b.MatVec(dst.Data[i*n:][:n], a.Data[i*k:][:k])
		}
		return
	}
	clear(dst.Data)
	n4 := n &^ 3
	var panel [kChunk * ntPanel]float64
	var t terms
	for c := range t.off {
		t.off[c] = c * ntPanel
	}
	for j0 := 0; j0 < n4; j0 += ntPanel {
		w := min(ntPanel, n4-j0)
		for k0 := 0; k0 < k; k0 += kChunk {
			kc := min(kChunk, k-k0)
			kc4 := kc &^ 3
			if kc4 > 0 {
				transposeAVX2(&panel[0], &b.Data[j0*k+k0], k, w, kc4)
			}
			for jj := 0; jj < w; jj++ {
				for c, v := range b.Data[(j0+jj)*k+k0+kc4:][:kc-kc4] {
					panel[(kc4+c)*ntPanel+jj] = v
				}
			}
			for i := 0; i < m; i++ {
				axpysAVX2(&dst.Data[i*n+j0], w, &panel[0], &t.off[0], &a.Data[i*k+k0], kc)
			}
		}
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k:][:k]
		for j := n4; j < n; j++ {
			var s float64
			for c, v := range b.Data[j*k:][:k] {
				s += arow[c] * v
			}
			dst.Data[i*n+j] = s
		}
	}
}

// matMulNN sets dst = a·b: row i of dst is addScaledRows over row i of a,
// from zero, as MatVecT forms bᵀ·a_i.
func matMulNN(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	clear(dst.Data)
	var t terms
	for i := 0; i < a.Rows; i++ {
		addRows(&t, dst.Data[i*n:][:n], a.Data[i*k:], 1, k, b.Data)
	}
}

// addMatMulTN adds aᵀ·b to dst: row r of dst is addScaledRows over column
// r of a, so each dst[r,c] adds a[k,r]·b[k,c] for every nonzero a[k,r] in
// k order, as per-sample AddOuterScaled calls would.
func addMatMulTN(dst, a, b *Matrix) {
	m, n := a.Cols, b.Cols
	if a.Rows == 0 {
		return
	}
	var t terms
	for r := 0; r < m; r++ {
		addRows(&t, dst.Data[r*n:][:n], a.Data[r:], m, a.Rows, b.Data)
	}
}

// addRows is addScaledRows on the selected body; t is the caller's
// scratch for the packed one.
func addRows(t *terms, dst, x Vector, xs, rows int, b Vector) {
	if !useAVX2 {
		addScaledRows(dst, x, xs, rows, b)
		return
	}
	n := len(dst)
	n4 := n &^ 3
	for r0 := 0; r0 < rows; r0 += kChunk {
		// Compact the chunk's nonzero scales, in row order, without a
		// data-dependent branch: a slot is kept by advancing past it.
		// cnt stays below kChunk, so masking it only drops bounds checks.
		cnt, xr := 0, x[r0*xs:]
		for i := range min(kChunk, rows-r0) {
			v := xr[i*xs]
			t.s[cnt&(kChunk-1)], t.off[cnt&(kChunk-1)] = v, (r0+i)*n
			if math.Float64bits(v)<<1 != 0 { // v != ±0 (NaN included)
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		if n4 > 0 {
			axpysAVX2(&dst[0], n4, &b[0], &t.off[0], &t.s[0], cnt)
		}
		for c := n4; c < n; c++ {
			d := dst[c]
			for i, s := range t.s[:cnt] {
				d += b[t.off[i]+c] * s
			}
			dst[c] = d
		}
	}
}
