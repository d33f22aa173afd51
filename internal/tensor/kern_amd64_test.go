//go:build amd64

package tensor

import "testing"

// TestKernAVXMatchesScalar pins the assembly micro-kernels to their
// scalar oracles on raw packed panels: the float32 kernel must be
// bit-identical (same mul/add sequence per element), the int8 kernel
// exactly equal (int32 arithmetic is exact). Odd and even kc exercise
// the unrolled pair loop and the trailing step.
func TestKernAVXMatchesScalar(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this machine")
	}
	for _, kc := range []int{1, 2, 3, 7, 64, 255, 256} {
		ap := make([]float32, packMR*kc)
		bp := make([]float32, packNR*kc)
		fillSeq(ap, 3)
		fillSeq(bp, 5)
		const ldd = packNR + 3 // non-contiguous rows, like a dst sub-tile
		ref := make([]float32, packMR*ldd)
		got := make([]float32, packMR*ldd)
		fillSeq(ref, 7)
		copy(got, ref)
		kern4x8(ref[0:], ref[ldd:], ref[2*ldd:], ref[3*ldd:], ap, bp, kc)
		kern4x8AVX(&got[0], ldd, &ap[0], &bp[0], kc)
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("kc=%d: float kernel diverges at %d: %g vs %g", kc, i, ref[i], got[i])
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
