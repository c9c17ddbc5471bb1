package tensor

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMM = 0b110 // XCR0: SSE and AVX state enabled
	if eax, _ := xgetbv(); eax&xmmYMM != xmmYMM {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpysAVX2 adds Σ_t s[t]·b[off[t]+j] to dst[j] for every j < n, taking
// the cnt terms in order: per lane one VMULPD, then one VADDPD into the
// running sum. n must be a multiple of 4 and cnt at least 1.
//
//go:noescape
func axpysAVX2(dst *float64, n int, b *float64, off *int, s *float64, cnt int)

// transposeAVX2 sets dst[c*16+r] = src[r*ld+c] for every r < rows and
// c < cols; rows and cols must be multiples of 4.
//
//go:noescape
func transposeAVX2(dst, src *float64, ld, rows, cols int)
