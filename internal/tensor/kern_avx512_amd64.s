//go:build amd64 && !noasm && !noavx512

#include "textflag.h"

// Z16STEP is one k step of the 4x16 float32 tile: the B sliver's row in
// Z4, then per tile row one broadcast A value, a vmulps and a vaddps into
// that row's accumulator (Z0-Z3).
#define Z16STEP(aoff, boff) \
	VMOVUPS boff(R9), Z4 \
	VBROADCASTSS aoff(R8), Z5 \
	VMULPS Z4, Z5, Z6 \
	VADDPS Z6, Z0, Z0 \
	VBROADCASTSS aoff+4(R8), Z5 \
	VMULPS Z4, Z5, Z6 \
	VADDPS Z6, Z1, Z1 \
	VBROADCASTSS aoff+8(R8), Z5 \
	VMULPS Z4, Z5, Z6 \
	VADDPS Z6, Z2, Z2 \
	VBROADCASTSS aoff+12(R8), Z5 \
	VMULPS Z4, Z5, Z6 \
	VADDPS Z6, Z3, Z3

// func kern4x16AVX512(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)
//
// kern4x16AVX with each tile row in one ZMM accumulator (Z0-Z3): the same
// operand order — vmulps(broadcast a, b), then vaddps(acc, product), never
// a fused multiply-add, k strictly increasing — and the same epilogue, the
// clamp as vmaxps(0, v) with zero the first source. So every lane is bit
// for bit kern4x16's. Only Z0-Z7 are touched, so the closing vzeroupper
// leaves no dirty upper state.
TEXT ·kern4x16AVX512(SB), NOSPLIT, $0-56
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
	JZ   zload
	VBROADCASTSS (R11), Z0
	VBROADCASTSS 4(R11), Z1
	VBROADCASTSS 8(R11), Z2
	VBROADCASTSS 12(R11), Z3
	JMP  zstart

zload:
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(SI*1), Z1
	VMOVUPS (R10), Z2
	VMOVUPS (R10)(SI*1), Z3

zstart:
	MOVQ CX, DX
	SHRQ $1, DX                 // k pairs (unrolled by 2)
	JZ   ztail

zpair:
	Z16STEP(0, 0)
	Z16STEP(16, 64)
	ADDQ $32, R8
	ADDQ $128, R9
	DECQ DX
	JNZ  zpair

ztail:
	ANDQ $1, CX                 // odd trailing k step
	JZ   zdone
	Z16STEP(0, 0)

zdone:
	TESTQ $2, R12
	JZ   zstore
	VPXORD Z7, Z7, Z7
	VMAXPS Z0, Z7, Z0
	VMAXPS Z1, Z7, Z1
	VMAXPS Z2, Z7, Z2
	VMAXPS Z3, Z7, Z3

zstore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(SI*1)
	VMOVUPS Z2, (R10)
	VMOVUPS Z3, (R10)(SI*1)
	VZEROUPPER
	RET
