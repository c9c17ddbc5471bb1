//go:build !amd64

package tensor

// haveAVX2 is false off amd64: the GEMMs run their portable bodies.
const haveAVX2 = false

func axpysAVX2(dst *float64, n int, b *float64, off *int, s *float64, cnt int) {
	panic("tensor: axpysAVX2 called without AVX2")
}

func transposeAVX2(dst, src *float64, ld, rows, cols int) {
	panic("tensor: transposeAVX2 called without AVX2")
}

func biasActAVX2(pre, act, bias *float64, rows, ld, n int, relu bool) {
	panic("tensor: biasActAVX2 called without AVX2")
}

func maskBiasGradAVX2(grad, pre, gb *float64, rows, ld, n int, relu bool) {
	panic("tensor: maskBiasGradAVX2 called without AVX2")
}

func clipStepAVX2(param, grad *float64, n int, alpha, lo, hi float64) {
	panic("tensor: clipStepAVX2 called without AVX2")
}
