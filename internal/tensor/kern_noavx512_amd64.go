//go:build amd64 && !noasm && noavx512

package tensor

// With -tags noavx512 the ZMM kernel is compiled out, so an AVX-512 host
// runs the AVX2 paths end to end.
const avx512Built = false

func kern4x16AVX512(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int) {
	panic("tensor: kern4x16AVX512 called in a noavx512 build")
}
