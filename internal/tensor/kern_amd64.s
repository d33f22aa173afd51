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

// I8STEP is one (p, p+1) pair step of the 4x8 int8 tile: the B sliver's
// eight column pairs in one load, each A row's pair one dword broadcast
// from memory, and vpmaddwd the exact two-product int32 partial sum per
// column, added into that row's accumulator (Y0-Y3).
#define I8STEP(aoff, boff, b) \
	VMOVDQU boff(R9), b \
	VPBROADCASTD aoff(R8), Y5 \
	VPMADDWD b, Y5, Y5 \
	VPADDD Y5, Y0, Y0 \
	VPBROADCASTD aoff+4(R8), Y6 \
	VPMADDWD b, Y6, Y6 \
	VPADDD Y6, Y1, Y1 \
	VPBROADCASTD aoff+8(R8), Y7 \
	VPMADDWD b, Y7, Y7 \
	VPADDD Y7, Y2, Y2 \
	VPBROADCASTD aoff+12(R8), Y8 \
	VPMADDWD b, Y8, Y8 \
	VPADDD Y8, Y3, Y3

// func kern4x8I8AVX2(dst *int32, ldd int, ap, bp *int16, pairs, panels int)
//
// Int8 4x8 tiles with int32 accumulators in Y0-Y3, over panels in pair
// layout (see PackedAI8 and widenPairs): panels consecutive A panels of
// pairs pairs each, against one B sliver, into the 4-row dst tiles one under
// the other. Integer arithmetic is exact, so the results equal the scalar
// kernel's. Steps run two to an iteration, then an odd last one.
TEXT ·kern4x8I8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), SI
	SHLQ $2, SI
	MOVQ ap+16(FP), R8
	MOVQ pairs+32(FP), CX
	MOVQ panels+40(FP), R11

ipanel:
	MOVQ bp+24(FP), R9
	LEAQ (DI)(SI*2), R10
	VMOVDQU (DI), Y0
	VMOVDQU (DI)(SI*1), Y1
	VMOVDQU (R10), Y2
	VMOVDQU (R10)(SI*1), Y3

	MOVQ CX, DX
	SHRQ $1, DX
	JZ   ione
itwo:
	I8STEP(0, 0, Y4)
	I8STEP(16, 32, Y9)
	ADDQ $32, R8
	ADDQ $64, R9
	DECQ DX
	JNZ  itwo

ione:
	TESTQ $1, CX
	JZ   istore
	I8STEP(0, 0, Y4)
	ADDQ $16, R8

istore:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(SI*1)
	VMOVDQU Y2, (R10)
	VMOVDQU Y3, (R10)(SI*1)
	LEAQ (R10)(SI*2), DI        // next tile: four rows down
	DECQ R11
	JNZ  ipanel
	VZEROUPPER
	RET

// func widenPairsAVX2(dst *int16, src *int8, kc int)
//
// widenPairs' vector body: two int8 sliver rows sign-extend to int16 and
// interleave word by word, so column c's (p, p+1) pair lands in dword c. An
// odd last row interleaves with zeros. Only 128-bit VEX operations: the
// upper YMM state stays clean.
TEXT ·widenPairsAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ kc+16(FP), CX

	MOVQ CX, DX
	SHRQ $1, DX
	JZ   wone

wtwo:
	VPMOVSXBW (SI), X0          // row p   -> 8 x int16
	VPMOVSXBW 8(SI), X1         // row p+1 -> 8 x int16
	VPUNPCKLWD X1, X0, X2       // columns 0-3 as (p, p+1) pairs
	VPUNPCKHWD X1, X0, X3       // columns 4-7
	VMOVDQU X2, (DI)
	VMOVDQU X3, 16(DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  wtwo

wone:
	ANDQ $1, CX
	JZ   wdone
	VPMOVSXBW (SI), X0
	VPXOR X1, X1, X1
	VPUNPCKLWD X1, X0, X2
	VPUNPCKHWD X1, X0, X3
	VMOVDQU X2, (DI)
	VMOVDQU X3, 16(DI)

wdone:
	RET

// QSTEP takes eight values at off(SI) through Quantize's rule up to the
// int32 conversion, leaving them in r: f = v*inv is one vmulps, as the
// scalar f := v * inv is one rounded multiply; t = f + copysign(0.5, f) is
// the scalar's f+0.5 or f-0.5 — only -0 takes the other sign, and -0.5
// truncates to 0 as +0.5 does. t clamps to [-127, 127] with the constant as
// the first source, so a NaN — the second source — passes through both; for
// f >= 127 t >= 127.5 and for f <= -127 t <= -127.5, so the clamp is exactly
// the scalar's two saturating arms, ±Inf included. vcvttps2dq truncates
// toward zero like the int8 conversion and turns a NaN into INT32_MIN, which
// the saturating packs carry to -128, a byte no other value can reach.
#define QSTEP(off, r) \
	VMULPS off(SI), Y8, r \
	VANDPS Y9, r, Y4 \
	VORPS Y10, Y4, Y4 \
	VADDPS Y4, r, r \
	VMAXPS r, Y12, r \
	VMINPS r, Y11, r \
	VCVTTPS2DQ r, r

// Dword order that undoes the lane interleave of vpackssdw + vpacksswb on
// four YMMs of int32: bytes 0-3 of each input sit in lane 0, 4-7 in lane 1.
DATA qperm<>+0(SB)/4, $0
DATA qperm<>+4(SB)/4, $4
DATA qperm<>+8(SB)/4, $1
DATA qperm<>+12(SB)/4, $5
DATA qperm<>+16(SB)/4, $2
DATA qperm<>+20(SB)/4, $6
DATA qperm<>+24(SB)/4, $3
DATA qperm<>+28(SB)/4, $7
GLOBL qperm<>(SB), RODATA|NOPTR, $32

// func quantizeAVX2(dst *int8, src *float32, n int, inv float32)
//
// Quantize's rule (see QSTEP) over n values, n a positive multiple of 8:
// 32 at a time, then 8 at a time. A -128 byte is a NaN and is written as 0,
// the scalar's int8(NaN - 0.5) on every Go target.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y8
	MOVL $0x80000000, AX        // sign bit
	VMOVD AX, X9
	VPBROADCASTD X9, Y9
	MOVL $0x3f000000, AX        // 0.5
	VMOVD AX, X10
	VPBROADCASTD X10, Y10
	MOVL $0x42fe0000, AX        // 127
	VMOVD AX, X11
	VPBROADCASTD X11, Y11
	MOVL $0xc2fe0000, AX        // -127
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	MOVL $0x80808080, AX        // -128 bytes
	VMOVD AX, X7
	VPBROADCASTD X7, Y7
	VMOVDQU qperm<>(SB), Y13

	MOVQ CX, DX
	SHRQ $5, DX
	JZ   qone
q32:
	QSTEP(0, Y0)
	QSTEP(32, Y1)
	QSTEP(64, Y2)
	QSTEP(96, Y3)
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSWB Y2, Y0, Y0
	VPERMD Y0, Y13, Y0          // 32 x int8, in order
	VPCMPEQB Y7, Y0, Y1
	VPANDN Y0, Y1, Y0           // NaN -> 0
	VMOVDQU Y0, (DI)
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  q32

qone:
	ANDQ $31, CX
	SHRQ $3, CX
	JZ   qdone
q8:
	QSTEP(0, Y0)
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0        // 8 x int16, in order
	VPACKSSWB X0, X0, X0        // 8 x int8 in the low quadword
	VPCMPEQB X7, X0, X1
	VPANDN X0, X1, X0
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  q8

qdone:
	VZEROUPPER
	RET

// func maxAbsAVX2(s *float32, n int) float32
//
// MaxAbs over n values, n a positive multiple of 8. |v| clears the sign
// bit, so every lane holds +0, a positive number, +Inf or a NaN; vmaxps(|v|,
// acc) — |v| the first source — keeps acc unless |v| is strictly greater, so
// a NaN is passed over as the scalar's `if v > m` passes it. Among values
// with no NaN and no -0 the maximum is the same in any order, so four
// accumulators and a lane reduction return the scalar loop's bits.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-20
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX
	MOVL $0x7fffffff, AX
	VMOVD AX, X8
	VPBROADCASTD X8, Y8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $5, DX
	JZ   mone
mfour:
	VANDPS (SI), Y8, Y4
	VMAXPS Y0, Y4, Y0
	VANDPS 32(SI), Y8, Y5
	VMAXPS Y1, Y5, Y1
	VANDPS 64(SI), Y8, Y6
	VMAXPS Y2, Y6, Y2
	VANDPS 96(SI), Y8, Y7
	VMAXPS Y3, Y7, Y3
	ADDQ $128, SI
	DECQ DX
	JNZ  mfour

mone:
	ANDQ $31, CX
	SHRQ $3, CX
	JZ   mreduce
mloop:
	VANDPS (SI), Y8, Y4
	VMAXPS Y0, Y4, Y0
	ADDQ $32, SI
	DECQ CX
	JNZ  mloop

mreduce:
	VMAXPS Y1, Y0, Y0
	VMAXPS Y3, Y2, Y2
	VMAXPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0x4E, X0, X1
	VMAXPS X1, X0, X0
	VPERMILPS $0xB1, X0, X1
	VMAXPS X1, X0, X0
	VMOVSS X0, ret+16(FP)
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
