//go:build !amd64 || noasm

package tensor

// Non-amd64 builds, and amd64 builds with -tags noasm, always take the
// portable scalar kernels; the results are bit-identical to the assembly
// paths by the determinism contract (see kern_amd64.go), so cross-platform
// outputs match.
const (
	haveAVX  = false
	haveAVX2 = false
)

func kern4x8AVX(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int) {
	panic("tensor: kern4x8AVX called without AVX support")
}

func maxPool3x3S1AVX(dst, src *float32, w, n int) {
	panic("tensor: maxPool3x3S1AVX called without AVX support")
}

func maxPool3x3S2AVX(dst, src *float32, w, n int) {
	panic("tensor: maxPool3x3S2AVX called without AVX support")
}

func kern4x8I8AVX2(dst *int32, ldd int, ap, bp *int16, pairs, panels int) {
	panic("tensor: kern4x8I8AVX2 called without AVX2 support")
}

func widenPairsAVX2(dst *int16, src *int8, kc int) {
	panic("tensor: widenPairsAVX2 called without AVX2 support")
}

func quantizeAVX2(dst *int8, src *float32, n int, inv float32) {
	panic("tensor: quantizeAVX2 called without AVX2 support")
}

func maxAbsAVX2(s *float32, n int) float32 {
	panic("tensor: maxAbsAVX2 called without AVX2 support")
}
