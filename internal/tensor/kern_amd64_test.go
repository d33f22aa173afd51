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
// the unrolled loops and their trailing steps. The float32 kernel runs
// the whole epilogue matrix — accumulators started from the bias or loaded
// from dst, clamped or not — on a tile whose sums come out negative,
// positive, -0 (-0 weights against a positive column, under a -0 bias or a
// -0 dst) and NaN, so the clamp's v<0 -> +0, -0 -> -0, NaN -> NaN rule is
// part of the pin. The int8 half is checkKernI8Pairs.
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

		if haveAVX2 {
			checkKernI8Pairs(t, kc)
		}
	}
}

// checkKernI8Pairs pins the int8 assembly to the portable code on panels
// built the way gemmI8Cols builds them — PackAI8 for A, packBBlock then
// widenPairs for B — at depth kc: tiles with fewer than MR rows or NR
// columns (zero padding), an odd kc's zero partners, and columns of two and
// three tiles in one call. Both widenings must write the same sliver, both
// kernels the same int32 tiles, and their valid corner must be the naive
// sum added to what dst held. The operands span the whole int8 range,
// -128 included.
func checkKernI8Pairs(t *testing.T, kc int) {
	t.Helper()
	defer func(avx2 bool) { haveAVX2 = avx2 }(haveAVX2)
	for _, sh := range [][2]int{{packMR, packNR}, {3, 5}, {1, packNR}, {packMR, 1}, {2 * packMR, packNR}, {11, 6}} {
		m, nc := sh[0], sh[1]
		a := make([]int8, m*kc)
		b := make([]int8, kc*nc)
		for i := range a {
			a[i] = int8(i*37 + 11)
		}
		for i := range b {
			b[i] = int8(i*53 + 29)
		}
		a[0], b[len(b)-1] = -128, -128
		panels := (m + packMR - 1) / packMR
		apan := PackAI8(a, m, kc, kc).panels(0, 0, kc, panels)
		bi8 := make([]int8, kc*packNR)
		packBBlock(bi8, b, nc, 0, kc, 0, nc)
		wideRef := make([]int16, pairDepth(kc)*packNR)
		wideGot := make([]int16, len(wideRef))
		haveAVX2 = false
		widenPairs(wideRef, bi8, kc)
		haveAVX2 = true
		widenPairs(wideGot, bi8, kc)
		for i := range wideRef {
			if wideRef[i] != wideGot[i] {
				t.Fatalf("kc=%d %dx%d: widened sliver diverges at %d: %d vs %d", kc, m, nc, i, wideRef[i], wideGot[i])
			}
		}
		const ldd = packNR + 3 // non-contiguous rows, like a dst sub-tile
		refI := make([]int32, panels*packMR*ldd)
		gotI := make([]int32, len(refI))
		for i := range refI {
			refI[i] = int32(i) - 40
		}
		start := append([]int32(nil), refI...)
		copy(gotI, refI)
		pairs := pairDepth(kc) / 2
		haveAVX2 = false
		kernTilesI8(refI, ldd, apan, wideRef, pairs, panels)
		haveAVX2 = true
		kernTilesI8(gotI, ldd, apan, wideGot, pairs, panels)
		for i := range refI {
			if refI[i] != gotI[i] {
				t.Fatalf("kc=%d %dx%d: int8 kernel diverges at %d: %d vs %d", kc, m, nc, i, refI[i], gotI[i])
			}
		}
		for r := 0; r < m; r++ {
			for c := 0; c < nc; c++ {
				want := start[r*ldd+c]
				for p := 0; p < kc; p++ {
					want += int32(a[r*kc+p]) * int32(b[p*nc+c])
				}
				if got := refI[r*ldd+c]; got != want {
					t.Fatalf("kc=%d %dx%d: output (%d,%d) = %d, naive %d", kc, m, nc, r, c, got, want)
				}
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

// BenchmarkKernI8 times the int8 micro-kernel alone: one 4x8 tile over a
// KC-deep A panel and B sliver, both resident in L1.
func BenchmarkKernI8(b *testing.B) {
	if !haveAVX2 {
		b.Skip("no AVX2 on this machine")
	}
	a := make([]int8, packMR*packKC)
	bb := make([]int8, packKC*packNR)
	fillRandI8(a, 1)
	fillRandI8(bb, 2)
	apan := PackAI8(a, packMR, packKC, packKC).panels(0, 0, packKC, 1)
	wide := make([]int16, packKC*packNR)
	widenPairs(wide, bb, packKC)
	var dst [packMR * packNR]int32
	for i := 0; i < b.N; i++ {
		kern4x8I8AVX2(&dst[0], packNR, &apan[0], &wide[0], packKC/2, 1)
	}
	b.ReportMetric(float64(packMR*packNR*packKC)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}
