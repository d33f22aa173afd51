//go:build amd64 && !noasm

#include "textflag.h"

// func hasAVX() bool
// CPUID leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX), then XGETBV to
// confirm the OS enables XMM+YMM state (XCR0 bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX2() bool
// CPUID leaf 7 subleaf 0: EBX bit 5. Callers already require hasAVX, so
// YMM OS support is established.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

// func kern4x8AVX(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)
//
// One full 4x8 register tile accumulated across a KC chunk. The four
// accumulator rows live in Y0-Y3 for the whole k loop; each k step
// broadcasts the four packed A values and issues a separate vmulps and
// vaddps per row — never a fused multiply-add — so every output element
// receives exactly the scalar kernel's operation sequence (one rounding
// per multiply, one per add, k strictly increasing) and the results are
// bit-identical to kern4x8.
//
// flags bit 0 (kernInit): the rows start from the broadcast bias[0..3]
// instead of being loaded from dst. flags bit 1 (kernReLU): each row is
// clamped before the store with vmaxps(0, v) — zero as the first source,
// the accumulator as the second — which returns the second source when
// both are zeros or either is NaN, so v < 0 becomes +0 while -0 and NaN
// pass through: bit for bit the ReLU layer's `if v < 0 { v = 0 }`.
TEXT ·kern4x8AVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	SHLQ $2, SI                 // row stride in bytes
	MOVQ ap+16(FP), R8
	MOVQ bp+24(FP), R9
	MOVQ kc+32(FP), CX
	MOVQ bias+40(FP), R11
	MOVQ flags+48(FP), R12

	LEAQ (DI)(SI*2), R10        // &dst row 2
	TESTQ $1, R12
	JZ   fload
	VBROADCASTSS (R11), Y0
	VBROADCASTSS 4(R11), Y1
	VBROADCASTSS 8(R11), Y2
	VBROADCASTSS 12(R11), Y3
	JMP  fstart

fload:
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (R10), Y2
	VMOVUPS (R10)(SI*1), Y3

fstart:
	MOVQ CX, DX
	SHRQ $1, DX                 // k pairs (unrolled by 2)
	JZ   ftail

fpair:
	VMOVUPS (R9), Y5            // b row p
	VBROADCASTSS (R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y0, Y0
	VBROADCASTSS 4(R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y1, Y1
	VBROADCASTSS 8(R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y2, Y2
	VBROADCASTSS 12(R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y3, Y3

	VMOVUPS 32(R9), Y7          // b row p+1
	VBROADCASTSS 16(R8), Y4
	VMULPS Y7, Y4, Y6
	VADDPS Y6, Y0, Y0
	VBROADCASTSS 20(R8), Y4
	VMULPS Y7, Y4, Y6
	VADDPS Y6, Y1, Y1
	VBROADCASTSS 24(R8), Y4
	VMULPS Y7, Y4, Y6
	VADDPS Y6, Y2, Y2
	VBROADCASTSS 28(R8), Y4
	VMULPS Y7, Y4, Y6
	VADDPS Y6, Y3, Y3

	ADDQ $32, R8
	ADDQ $64, R9
	DECQ DX
	JNZ  fpair

ftail:
	ANDQ $1, CX                 // odd trailing k step
	JZ   fdone
	VMOVUPS (R9), Y5
	VBROADCASTSS (R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y0, Y0
	VBROADCASTSS 4(R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y1, Y1
	VBROADCASTSS 8(R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y2, Y2
	VBROADCASTSS 12(R8), Y4
	VMULPS Y5, Y4, Y6
	VADDPS Y6, Y3, Y3

fdone:
	TESTQ $2, R12
	JZ   fstore
	VXORPS Y4, Y4, Y4
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y4, Y1
	VMAXPS Y2, Y4, Y2
	VMAXPS Y3, Y4, Y3

fstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, (R10)(SI*1)
	VZEROUPPER
	RET

// func kern4x8I8AVX2(dst *int32, ldd int, ap, bp *int8, kc int)
//
// Int8 4x8 tile with int32 accumulators in Y0-Y3. k steps are consumed
// two at a time: the two packed B rows widen to int16 and interleave so
// each int32 lane holds one column's (p, p+1) pair, each A row's pair
// assembles into one broadcast dword, and vpmaddwd produces the exact
// two-product int32 partial sum per column. Integer arithmetic is exact,
// so pairing changes nothing: results equal the scalar kernel's.
TEXT ·kern4x8I8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	SHLQ $2, SI
	MOVQ ap+16(FP), R8
	MOVQ bp+24(FP), R9
	MOVQ kc+32(FP), R11

	LEAQ (DI)(SI*2), R10
	VMOVDQU (DI), Y0
	VMOVDQU (DI)(SI*1), Y1
	VMOVDQU (R10), Y2
	VMOVDQU (R10)(SI*1), Y3

	MOVQ R11, DX
	SHRQ $1, DX
	JZ   itail

ipair:
	VPMOVSXBW (R9), X5          // b row p   -> 8 x int16
	VPMOVSXBW 8(R9), X6         // b row p+1 -> 8 x int16
	VPUNPCKLWD X6, X5, X7       // cols 0-3 as (p, p+1) int16 pairs
	VPUNPCKHWD X6, X5, X8       // cols 4-7
	VINSERTI128 $1, X8, Y7, Y7  // all 8 column pairs in one YMM

	MOVBLSX 0(R8), AX           // row 0 pair: a[0][p] | a[0][p+1]<<16
	MOVBLSX 4(R8), BX
	SHLL $16, BX
	ANDL $0xFFFF, AX
	ORL  BX, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y0, Y0

	MOVBLSX 1(R8), AX
	MOVBLSX 5(R8), BX
	SHLL $16, BX
	ANDL $0xFFFF, AX
	ORL  BX, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y1, Y1

	MOVBLSX 2(R8), AX
	MOVBLSX 6(R8), BX
	SHLL $16, BX
	ANDL $0xFFFF, AX
	ORL  BX, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y2, Y2

	MOVBLSX 3(R8), AX
	MOVBLSX 7(R8), BX
	SHLL $16, BX
	ANDL $0xFFFF, AX
	ORL  BX, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y3, Y3

	ADDQ $8, R8
	ADDQ $16, R9
	DECQ DX
	JNZ  ipair

itail:
	ANDQ $1, R11                // odd trailing k step: pair partner is 0
	JZ   idone
	VPMOVSXBW (R9), X5
	VPXOR X6, X6, X6
	VPUNPCKLWD X6, X5, X7
	VPUNPCKHWD X6, X5, X8
	VINSERTI128 $1, X8, Y7, Y7

	MOVBLSX 0(R8), AX
	ANDL $0xFFFF, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y0, Y0

	MOVBLSX 1(R8), AX
	ANDL $0xFFFF, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y1, Y1

	MOVBLSX 2(R8), AX
	ANDL $0xFFFF, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y2, Y2

	MOVBLSX 3(R8), AX
	ANDL $0xFFFF, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VPMADDWD Y7, Y4, Y5
	VPADDD Y5, Y3, Y3

idone:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(SI*1)
	VMOVDQU Y2, (R10)
	VMOVDQU Y3, (R10)(SI*1)
	VZEROUPPER
	RET

// func maxPool3x3S1AVX(dst, src *float32, w, n int)
//
// Eight stride-1 3x3 max-pool outputs per iteration. The accumulator
// starts as tap (0,0) and takes the other eight taps ky-major, kx-minor
// through vmaxps(tap, acc) — the tap as the first source, the accumulator
// as the second — which keeps the second source unless the first is
// strictly greater (ties between zeros and any NaN keep it too): bit for
// bit the scalar loop's `if v > acc { acc = v }`.
TEXT ·maxPool3x3S1AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), DX
	SHLQ $2, DX                 // plane row pitch in bytes
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	LEAQ (SI)(DX*1), R8         // window row 1
	LEAQ (SI)(DX*2), R9         // window row 2

p1loop:
	VMOVUPS (SI), Y0
	VMOVUPS 4(SI), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS 8(SI), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS (R8), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS 4(R8), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS 8(R8), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS (R9), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS 4(R9), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS 8(R9), Y1
	VMAXPS Y0, Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, DI
	DECQ CX
	JNZ  p1loop
	VZEROUPPER
	RET

// P2ROW takes one window row's three taps into the accumulator Y0 for
// eight stride-2 outputs. The row's floats a0..a16 start at ptr. Two
// 128-bit loads per YMM put a0-a3|a8-a11 in Y1 and a4-a7|a12-a15 in Y2, so
// the in-lane vshufps $0x88 / $0xDD yield the even taps a0,a2,..,a14
// (kx=0) and the odd taps a1,a3,..,a15 (kx=1) in output order; the same
// loads one float later yield a2,a4,..,a16 (kx=2) as their odd taps.
// Nothing past a16, the last output's last tap, is read. acc is what the
// kx=0 taps are compared against: Y0 in general, and the taps themselves
// for the window's first row, where vmaxps(x, x) = x makes it a move.
#define P2ROW(ptr, acc) \
	VMOVUPS (ptr), X1 \
	VINSERTF128 $1, 32(ptr), Y1, Y1 \
	VMOVUPS 16(ptr), X2 \
	VINSERTF128 $1, 48(ptr), Y2, Y2 \
	VSHUFPS $0x88, Y2, Y1, Y3 \
	VSHUFPS $0xDD, Y2, Y1, Y4 \
	VMAXPS acc, Y3, Y0 \
	VMAXPS Y0, Y4, Y0 \
	VMOVUPS 4(ptr), X1 \
	VINSERTF128 $1, 36(ptr), Y1, Y1 \
	VMOVUPS 20(ptr), X2 \
	VINSERTF128 $1, 52(ptr), Y2, Y2 \
	VSHUFPS $0xDD, Y2, Y1, Y3 \
	VMAXPS Y0, Y3, Y0

// func maxPool3x3S2AVX(dst, src *float32, w, n int)
//
// Eight stride-2 3x3 max-pool outputs per iteration, with the tap order
// and vmaxps operand order of maxPool3x3S1AVX.
TEXT ·maxPool3x3S2AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), DX
	SHLQ $2, DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	LEAQ (SI)(DX*1), R8
	LEAQ (SI)(DX*2), R9

p2loop:
	P2ROW(SI, Y3)
	P2ROW(R8, Y0)
	P2ROW(R9, Y0)
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $32, DI
	DECQ CX
	JNZ  p2loop
	VZEROUPPER
	RET
