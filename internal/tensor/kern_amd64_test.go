//go:build amd64 && !noasm

package tensor

import (
	"math"
	"testing"
)

// TestKernAVXMatchesScalar pins the assembly micro-kernels to their
// scalar oracles on raw packed panels: the float32 kernel must be
// bit-identical (same mul/add sequence per element), the int8 kernel
// exactly equal (int32 arithmetic is exact). Odd and even kc exercise
// the unrolled pair loop and the trailing step. The float32 kernel runs
// the whole epilogue matrix — accumulators started from the bias or loaded
// from dst, clamped or not — on a tile whose sums come out negative,
// positive, -0 (-0 weights against a positive column, under a -0 bias or a
// -0 dst) and NaN, so the clamp's v<0 -> +0, -0 -> -0, NaN -> NaN rule is
// part of the pin.
func TestKernAVXMatchesScalar(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this machine")
	}
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	for _, kc := range []int{1, 2, 3, 7, 64, 255, 256} {
		ap := make([]float32, packMR*kc)
		bp := make([]float32, packNR*kc)
		fillSeq(ap, 3)
		fillSeq(bp, 5)
		for p := 0; p < kc; p++ {
			// Output (1,5) adds -0 * positive = -0 to its starting value kc times.
			ap[p*packMR+1] = negZero
			bp[p*packNR+5] = float32(math.Abs(float64(bp[p*packNR+5]))) + 0.25
		}
		ap[(kc-1)*packMR+2], bp[(kc-1)*packNR+2] = 0.75, nan // output (2,2) ends NaN
		bias := []float32{-3, negZero, 0.5, nan}
		const ldd = packNR + 3 // non-contiguous rows, like a dst sub-tile
		for flags := 0; flags <= kernInit|kernReLU; flags++ {
			ref := make([]float32, packMR*ldd)
			got := make([]float32, packMR*ldd)
			fillSeq(ref, 7)
			for j := 0; j < packNR; j++ {
				ref[ldd+j] = negZero
			}
			copy(got, ref)
			kern4x8(ref[0:], ref[ldd:], ref[2*ldd:], ref[3*ldd:], ap, bp, kc, bias, flags)
			kern4x8AVX(&got[0], ldd, &ap[0], &bp[0], kc, &bias[0], flags)
			neg := 0
			for i := range ref {
				if math.Float32bits(ref[i]) != math.Float32bits(got[i]) {
					t.Fatalf("kc=%d flags=%d: float kernel diverges at %d: %g (%#08x) vs %g (%#08x)",
						kc, flags, i, ref[i], math.Float32bits(ref[i]), got[i], math.Float32bits(got[i]))
				}
				if i%ldd < packNR && ref[i] < 0 {
					neg++
				}
			}
			if flags&kernReLU != 0 && neg != 0 {
				t.Fatalf("kc=%d flags=%d: %d negative outputs survived the clamp", kc, flags, neg)
			}
			if flags&kernReLU == 0 && neg == 0 {
				t.Fatalf("kc=%d flags=%d: tile has no negative sum; the clamp case would prove nothing", kc, flags)
			}
			if v := ref[ldd+5]; math.Float32bits(v) != math.Float32bits(negZero) {
				t.Fatalf("kc=%d flags=%d: output (1,5) = %g (%#08x), want -0", kc, flags, v, math.Float32bits(v))
			}
			if v := ref[2*ldd+2]; v == v {
				t.Fatalf("kc=%d flags=%d: output (2,2) = %g, want NaN", kc, flags, v)
			}
		}

		if !haveAVX2 {
			continue
		}
		api := make([]int8, packMR*kc)
		bpi := make([]int8, packNR*kc)
		for i := range api {
			api[i] = int8(i*37 + 11)
		}
		for i := range bpi {
			bpi[i] = int8(i*53 + 29)
		}
		refI := make([]int32, packMR*ldd)
		gotI := make([]int32, packMR*ldd)
		for i := range refI {
			refI[i] = int32(i) - 40
		}
		copy(gotI, refI)
		kern4x8i8(refI[0:], refI[ldd:], refI[2*ldd:], refI[3*ldd:], api, bpi, kc)
		kern4x8I8AVX2(&gotI[0], ldd, &api[0], &bpi[0], kc)
		for i := range refI {
			if refI[i] != gotI[i] {
				t.Fatalf("kc=%d: int8 kernel diverges at %d: %d vs %d", kc, i, refI[i], gotI[i])
			}
		}
	}
}

// TestRaggedTilesPortableKernels repeats the ragged-tile property with the
// assembly kernels switched off, so the pure-Go micro-kernels take the
// zero-padded tiles too.
func TestRaggedTilesPortableKernels(t *testing.T) {
	defer func(avx, avx2 bool) { haveAVX, haveAVX2 = avx, avx2 }(haveAVX, haveAVX2)
	haveAVX, haveAVX2 = false, false
	checkRaggedTiles(t)
}
