//go:build amd64 && !noasm

package tensor

// Runtime SIMD dispatch for the packed micro-kernels and the max-pool row
// kernels. The assembly kernels consume the exact panel layouts documented
// in pack.go and replay the scalar kernels' arithmetic: kern4x8AVX issues
// one vmulps + one vaddps per packed product (never a fused multiply-add),
// so every output element sees the same single-rounded float32 operation
// sequence in the same k order as kern4x8 — the two are bit-identical, and
// the scalar kernel doubles as the oracle in tests. The int8 kernel
// accumulates in exact int32 arithmetic where order is immaterial, and the
// quantize pass replays Quantize's and MaxAbs's scalar rules lane by lane.
//
// Building with -tags noasm leaves this file and kern_amd64.s out and takes
// kern_other.go instead, so the tests can run whole networks through the
// portable kernels on an amd64 host.

// haveAVX gates the float32 micro-kernel (needs AVX YMM state);
// haveAVX2 gates the int8 micro-kernel, its sliver widening and the
// quantize pass (need AVX2 integer YMM ops).
var (
	haveAVX  = hasAVX()
	haveAVX2 = haveAVX && hasAVX2()
)

// hasAVX reports CPU+OS support for AVX (CPUID leaf 1 OSXSAVE+AVX and
// XCR0 enabling XMM+YMM state). Implemented in kern_amd64.s.
func hasAVX() bool

// hasAVX2 reports CPUID leaf 7 AVX2 support. Implemented in kern_amd64.s.
func hasAVX2() bool

// kern4x8AVX accumulates one full MR x NR (4x8) dst tile across a KC
// chunk: dst rows start at dst with row stride ldd (in elements), ap is
// a packed A panel (kc groups of 4), bp a packed B sliver (kc groups of
// 8). flags is the kernInit/kernReLU epilogue set kern4x8 documents; bias
// points at the tile's four row biases and is read only under kernInit.
// Implemented in kern_amd64.s.
//
//go:noescape
func kern4x8AVX(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)

// kern4x8I8AVX2 is the int8 twin, run over a column of tiles: int32
// accumulation into panels full 4x8 tiles, each MR rows below the last,
// from panels consecutive pair-layout A panels (PackedAI8) against one B
// sliver (widenPairs), pairs (p, p+1) steps each. Implemented in
// kern_amd64.s.
//
//go:noescape
func kern4x8I8AVX2(dst *int32, ldd int, ap, bp *int16, pairs, panels int)

// widenPairsAVX2 is widenPairs for a kc-row int8 sliver. Implemented in
// kern_amd64.s.
//
//go:noescape
func widenPairsAVX2(dst *int16, src *int8, kc int)

// quantizeAVX2 and maxAbsAVX2 are Quantize's and MaxAbs's loops over n
// values, n a positive multiple of 8, with the scalar rules' results bit
// for bit. Implemented in kern_amd64.s.
//
//go:noescape
func quantizeAVX2(dst *int8, src *float32, n int, inv float32)

//go:noescape
func maxAbsAVX2(s *float32, n int) float32

// maxPool3x3S1AVX and maxPool3x3S2AVX are MaxPool3x3's stride-1 and
// stride-2 row kernels: n outputs, n a positive multiple of 8, each the
// maximum of the 3x3 window whose first tap is src[i*stride] in a plane of
// row length w, taken in the scalar loop's tap order with its tie and NaN
// rules. Implemented in kern_amd64.s.
//
//go:noescape
func maxPool3x3S1AVX(dst, src *float32, w, n int)

//go:noescape
func maxPool3x3S2AVX(dst, src *float32, w, n int)
