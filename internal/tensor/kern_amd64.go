//go:build amd64 && !noasm

package tensor

// Runtime SIMD dispatch for the packed micro-kernels and the max-pool and
// LRN row kernels, chosen once at start-up from CPUID. The assembly kernels
// consume the exact panel layouts documented in pack.go and replay the
// scalar kernels' arithmetic: the float32 kernels — kern4x16AVX512 with
// four ZMM accumulators, kern4x16AVX with eight YMM ones — issue one vmulps
// + one vaddps per packed product (never a fused multiply-add), so every
// output element sees the same single-rounded float32 operation sequence in
// the same k order as kern4x16 — the three are bit-identical except for
// the payload where two NaNs meet in one add (x86 returns the first
// source's NaN, and the compiler picks the Go kernel's operand order per
// build; it differs under -race), and the scalar kernel doubles as the
// oracle in tests. The int8 kernel accumulates
// in exact int32 arithmetic where order is immaterial, and the quantize
// pass replays Quantize's and MaxAbs's scalar rules lane by lane. The LRN
// row kernel gives each element its own float64 lane and the scalar loop's
// IEEE operations in its order — widen, square and add per window row from
// a zero sum, k·s, 1+k·s, two square roots, a product, the quotient, one
// rounding to float32 — with no fused multiply-add, and wherever two NaNs
// could meet it names the running sum or the dividend first, the operand
// lrnRowScalar keeps: the two agree bit for bit, NaN payloads included —
// lrnRowScalar is the only kernel that pins the payload.
//
// Building with -tags noasm leaves this file and kern_amd64.s out and takes
// kern_other.go instead, so the tests can run whole networks through the
// portable kernels on an amd64 host; -tags noavx512 leaves only the ZMM
// kernel out (kern_noavx512_amd64.go), so an AVX-512 host runs the AVX2
// paths.

// haveAVX gates the YMM float32 micro-kernel and the max-pool and LRN row
// kernels (need AVX YMM state); haveAVX2 gates the int8 micro-kernel, its
// sliver widening and the quantize pass (need AVX2 integer YMM ops);
// haveAVX512 gates the ZMM float32 micro-kernel (needs AVX-512F and ZMM
// state).
var haveAVX, haveAVX2, haveAVX512 = probeISA()

// CPUID and XCR0 bits the probe reads.
const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: XGETBV is enabled
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX2    = 1 << 5  // leaf 7 EBX
	cpuidAVX512F = 1 << 16 // leaf 7 EBX
	xcr0YMM      = 1<<1 | 1<<2
	xcr0ZMM      = xcr0YMM | 1<<5 | 1<<6 | 1<<7 // plus opmask, ZMM0-15 upper halves, ZMM16-31
)

func probeISA() (avx, avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0 = xgetbv()
	}
	return decodeISA(maxLeaf, ecx1, ebx7, xcr0)
}

// decodeISA decides the ISA levels from the probe's raw words: leaf 0's
// EAX (the highest basic leaf), leaf 1's ECX, leaf 7 subleaf 0's EBX and
// XCR0 (zero when the OS has not enabled XGETBV). Leaf 7's word counts only
// when the highest basic leaf reaches 7: above it, Intel parts answer with
// the highest leaf's data instead.
func decodeISA(maxLeaf, ecx1, ebx7, xcr0 uint32) (avx, avx2, avx512 bool) {
	avx = ecx1&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX && xcr0&xcr0YMM == xcr0YMM
	if !avx || maxLeaf < 7 {
		return avx, false, false
	}
	avx2 = ebx7&cpuidAVX2 != 0
	avx512 = avx512Built && ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
	return avx, avx2, avx512
}

// cpuid returns CPUID's EAX, EBX, ECX and EDX for leaf and subleaf.
// Implemented in kern_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0's low word; call it only when CPUID reports OSXSAVE.
// Implemented in kern_amd64.s.
func xgetbv() uint32

// kern4x16AVX accumulates one full MR x NR (4x16) dst tile across a KC
// chunk: dst rows start at dst with row stride ldd (in elements), ap is a
// packed A panel (kc groups of 4), bp a packed B sliver (kc groups of 16).
// flags is the kernInit/kernReLU epilogue set kern4x16 documents; bias
// points at the tile's four row biases and is read only under kernInit.
// Implemented in kern_amd64.s; kern4x16AVX512 (kern_avx512_amd64.s) has
// the same contract.
//
//go:noescape
func kern4x16AVX(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)

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

// lrnRowAVX is LRNRow over n outputs with the window's rows in a ring of
// rows rows, stride floats apart. Implemented in kern_amd64.s.
//
//go:noescape
func lrnRowAVX(dst, x, ring *float32, stride, first, count, rows, n int, k float64)
