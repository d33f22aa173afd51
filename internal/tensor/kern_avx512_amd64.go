//go:build amd64 && !noasm && !noavx512

package tensor

// avx512Built reports that this build carries the ZMM float32 kernel;
// -tags noavx512 leaves it out (kern_noavx512_amd64.go).
const avx512Built = true

// kern4x16AVX512 is kern4x16AVX with one ZMM accumulator per tile row.
// Implemented in kern_avx512_amd64.s.
//
//go:noescape
func kern4x16AVX512(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)
