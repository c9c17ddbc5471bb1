#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpysAVX2(dst *float64, n int, b *float64, off *int, s *float64, cnt int)
//
// Sixteen outputs per pass in four accumulators, then eight, then four.
// Every accumulator starts from dst and, for t = 0, 1, …, cnt-1, takes
// acc = acc + (s[t]·row_t): a VMULPD, then a VADDPD.
TEXT ·axpysAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ b+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ s+32(FP), R9
	MOVQ cnt+40(FP), R10

wide:
	CMPQ CX, $16
	JLT  eight
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ R11, R11

wideterm:
	MOVQ (R8)(R11*8), AX
	LEAQ (SI)(AX*8), AX
	VBROADCASTSD (R9)(R11*8), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(AX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(AX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(AX), Y4, Y8
	VADDPD Y8, Y3, Y3
	INCQ R11
	CMPQ R11, R10
	JLT  wideterm
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, CX
	JMP  wide

eight:
	CMPQ CX, $8
	JLT  four
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	XORQ R11, R11

eightterm:
	MOVQ (R8)(R11*8), AX
	LEAQ (SI)(AX*8), AX
	VBROADCASTSD (R9)(R11*8), Y4
	VMULPD (AX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(AX), Y4, Y6
	VADDPD Y6, Y1, Y1
	INCQ R11
	CMPQ R11, R10
	JLT  eightterm
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $8, CX

four:
	CMPQ CX, $4
	JLT  done
	VMOVUPD (DI), Y0
	XORQ R11, R11

fourterm:
	MOVQ (R8)(R11*8), AX
	VBROADCASTSD (R9)(R11*8), Y4
	VMULPD (SI)(AX*8), Y4, Y5
	VADDPD Y5, Y0, Y0
	INCQ R11
	CMPQ R11, R10
	JLT  fourterm
	VMOVUPD Y0, (DI)

done:
	VZEROUPPER
	RET

// func transposeAVX2(dst *float64, src *float64, ld int, rows int, cols int)
//
// dst[c*16+r] = src[r*ld+c] for every r < rows and c < cols, both
// multiples of 4, one 4×4 block at a time: four row loads, two unpacks
// and two lane permutes per pair of rows, four column stores. The values
// move bit for bit.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R10
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), R9

rowblock:
	CMPQ R8, $4
	JLT  tdone
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R9, CX

colblock:
	CMPQ CX, $4
	JLT  nextrows
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(DX*1), Y1
	VMOVUPD (AX)(DX*2), Y2
	VMOVUPD (AX)(R10*1), Y3
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 128(BX)
	VMOVUPD Y2, 256(BX)
	VMOVUPD Y3, 384(BX)
	ADDQ $32, AX
	ADDQ $512, BX
	SUBQ $4, CX
	JMP  colblock

nextrows:
	LEAQ (SI)(DX*4), SI
	ADDQ $32, DI
	SUBQ $4, R8
	JMP  rowblock

tdone:
	VZEROUPPER
	RET

// func biasActAVX2(pre *float64, act *float64, bias *float64, rows int, ld int, n int, relu bool)
//
// For each of rows rows, ld elements apart, and each group of four of the
// first n columns: v = pre + bias (VADDPD, pre first), stored to pre;
// then, with relu, v AND (v > 0) — VCMPPD GT_OQ is false for NaN and −0,
// so those become +0 — stored to act.
TEXT ·biasActAVX2(SB), NOSPLIT, $0-49
	MOVQ    pre+0(FP), DI
	MOVQ    act+8(FP), SI
	MOVQ    bias+16(FP), DX
	MOVQ    rows+24(FP), R8
	MOVQ    ld+32(FP), R9
	SHLQ    $3, R9
	MOVQ    n+40(FP), R10
	SHLQ    $3, R10
	MOVBLZX relu+48(FP), R11
	VXORPD  Y15, Y15, Y15

barow:
	XORQ AX, AX

bacol:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (DX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	TESTQ   R11, R11
	JEQ     bastore
	VCMPPD  $0x1e, Y15, Y0, Y1
	VANDPD  Y1, Y0, Y0

bastore:
	VMOVUPD Y0, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     bacol
	ADDQ    R9, DI
	ADDQ    R9, SI
	DECQ    R8
	JNZ     barow
	VZEROUPPER
	RET

// func maskBiasGradAVX2(grad *float64, pre *float64, gb *float64, rows int, ld int, n int, relu bool)
//
// For each of rows rows, ld elements apart, and each group of four of the
// first n columns: with relu, v = g AND NOT(pre <= 0) — VCMPPD NLE_UQ is
// true for a NaN pre, which keeps g — stored back to g; then
// gb = v + gb (VADDPD, the gradient first). Rows run in order.
TEXT ·maskBiasGradAVX2(SB), NOSPLIT, $0-49
	MOVQ    grad+0(FP), DI
	MOVQ    pre+8(FP), SI
	MOVQ    gb+16(FP), DX
	MOVQ    rows+24(FP), R8
	MOVQ    ld+32(FP), R9
	SHLQ    $3, R9
	MOVQ    n+40(FP), R10
	SHLQ    $3, R10
	MOVBLZX relu+48(FP), R11
	VXORPD  Y15, Y15, Y15

mbrow:
	XORQ AX, AX

mbcol:
	VMOVUPD (DI)(AX*1), Y0
	TESTQ   R11, R11
	JEQ     mbadd
	VMOVUPD (SI)(AX*1), Y1
	VCMPPD  $0x16, Y15, Y1, Y1
	VANDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)

mbadd:
	VADDPD  (DX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JLT     mbcol
	ADDQ    R9, DI
	ADDQ    R9, SI
	DECQ    R8
	JNZ     mbrow
	VZEROUPPER
	RET

// func clipStepAVX2(param *float64, grad *float64, n int, alpha float64, lo float64, hi float64)
//
// For each group of four of the first n elements: t = max(lo, min(hi, g)),
// with the bound as VMINPD's and VMAXPD's first operand, so a NaN g (the
// second operand) passes through as the scalar compares let it; g = t;
// then p = alpha·t + p as a VMULPD (alpha first) and a VADDPD (the product
// first) — never a fused multiply-add.
TEXT ·clipStepAVX2(SB), NOSPLIT, $0-48
	MOVQ         param+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	VBROADCASTSD alpha+24(FP), Y13
	VBROADCASTSD lo+32(FP), Y14
	VBROADCASTSD hi+40(FP), Y15
	XORQ         AX, AX

csloop:
	VMOVUPD (SI)(AX*1), Y0
	VMINPD  Y0, Y15, Y0
	VMAXPD  Y0, Y14, Y0
	VMOVUPD Y0, (SI)(AX*1)
	VMULPD  Y0, Y13, Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     csloop
	VZEROUPPER
	RET
