//go:build amd64 && !noasm

package tensor

import (
	"math"
	"testing"
)

// TestKernAVXMatchesScalar pins the assembly micro-kernels to their
// scalar oracles on raw packed panels: both float32 kernels — the YMM one
// and, on hosts with AVX-512, the ZMM one — must be bit-identical to
// kern4x16 (same mul/add sequence per element), the int8 kernel exactly
// equal (int32 arithmetic is exact). Odd and even kc exercise the unrolled
// loops and their trailing steps. The float32 kernels run the whole
// epilogue matrix — accumulators started from the bias or loaded from dst,
// clamped or not — on a tile whose sums come out negative, positive, -0
// (-0 weights against a positive column, under a -0 bias or a -0 dst) and
// NaN, so the clamp's v<0 -> +0, -0 -> -0, NaN -> NaN rule is part of the
// pin. The int8 half is checkKernI8Pairs.
func TestKernAVXMatchesScalar(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this machine")
	}
	kcs := []int{1, 2, 3, 7, 64, 255, 256}
	for _, k := range []struct {
		name string
		have bool
		kern func(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)
	}{
		{"avx2", haveAVX, kern4x16AVX},
		{"avx512", haveAVX512, kern4x16AVX512},
	} {
		t.Run(k.name, func(t *testing.T) {
			if !k.have {
				t.Skip("this machine (or build) has no " + k.name + " float32 kernel")
			}
			for _, kc := range kcs {
				checkKernFloat(t, kc, k.kern)
			}
		})
	}
	t.Run("int8", func(t *testing.T) {
		if !haveAVX2 {
			t.Skip("no AVX2 on this machine")
		}
		for _, kc := range kcs {
			checkKernI8Pairs(t, kc)
		}
	})
}

// checkKernFloat runs one float32 assembly kernel against kern4x16 at depth
// kc, under every epilogue flag set (see TestKernAVXMatchesScalar).
func checkKernFloat(t *testing.T, kc int, kern func(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)) {
	t.Helper()
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	ap := make([]float32, packMR*kc)
	bp := make([]float32, packNR*kc)
	fillSeq(ap, 3)
	fillSeq(bp, 5)
	// Outputs (1,5) and (1,13), one in each 8-column half, add -0 * positive
	// = -0 to their starting values kc times; (2,2) and (2,10) end NaN.
	for p := 0; p < kc; p++ {
		ap[p*packMR+1] = negZero
		for _, c := range []int{5, 13} {
			bp[p*packNR+c] = float32(math.Abs(float64(bp[p*packNR+c]))) + 0.25
		}
	}
	ap[(kc-1)*packMR+2] = 0.75
	bp[(kc-1)*packNR+2], bp[(kc-1)*packNR+10] = nan, nan
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
		kern4x16(ref, ldd, ap, bp, kc, bias, flags)
		kern(&got[0], ldd, &ap[0], &bp[0], kc, &bias[0], flags)
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
		for _, c := range []int{5, 13} {
			if v := ref[ldd+c]; math.Float32bits(v) != math.Float32bits(negZero) {
				t.Fatalf("kc=%d flags=%d: output (1,%d) = %g (%#08x), want -0", kc, flags, c, v, math.Float32bits(v))
			}
		}
		for _, c := range []int{2, 10} {
			if v := ref[2*ldd+c]; v == v {
				t.Fatalf("kc=%d flags=%d: output (2,%d) = %g, want NaN", kc, flags, c, v)
			}
		}
	}
}

// TestDecodeISAChecksMaxLeaf pins the CPUID decoding: leaf 7's feature
// word counts only on a CPU whose highest basic leaf reaches 7, AVX needs
// the OS to enable YMM state, and AVX-512 the opmask and ZMM state too.
func TestDecodeISAChecksMaxLeaf(t *testing.T) {
	const (
		ecx1   = cpuidOSXSAVE | cpuidAVX
		ebx7   = 0xffffffff // every leaf 7 feature bit, as stale data could read
		xcr0   = xcr0ZMM
		ymmOff = xcr0 &^ (1 << 2)
	)
	for _, c := range []struct {
		name                          string
		maxLeaf, ecx1, ebx7, xcr0     uint32
		wantAVX, wantAVX2, wantAVX512 bool
	}{
		{"leaf 7 present", 7, ecx1, ebx7, xcr0, true, true, avx512Built},
		{"highest leaf 6", 6, ecx1, ebx7, xcr0, true, false, false},
		{"no avx512f bit", 0xd, ecx1, cpuidAVX2, xcr0, true, true, false},
		{"no ZMM state", 0xd, ecx1, ebx7, xcr0YMM, true, true, false},
		{"no YMM state", 0xd, ecx1, ebx7, ymmOff, false, false, false},
		{"no OSXSAVE", 0xd, cpuidAVX, ebx7, 0, false, false, false},
	} {
		avx, avx2, avx512 := decodeISA(c.maxLeaf, c.ecx1, c.ebx7, c.xcr0)
		if avx != c.wantAVX || avx2 != c.wantAVX2 || avx512 != c.wantAVX512 {
			t.Errorf("%s: decodeISA = (%v, %v, %v), want (%v, %v, %v)",
				c.name, avx, avx2, avx512, c.wantAVX, c.wantAVX2, c.wantAVX512)
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
	for _, sh := range [][2]int{{packMR, packNRI8}, {3, 5}, {1, packNRI8}, {packMR, 1}, {2 * packMR, packNRI8}, {11, 6}} {
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
		bi8 := make([]int8, kc*packNRI8)
		packBBlock(bi8, b, nc, 0, kc, 0, nc)
		wideRef := make([]int16, pairDepth(kc)*packNRI8)
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
		const ldd = packNRI8 + 3 // non-contiguous rows, like a dst sub-tile
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
	defer func(avx, avx2, avx512 bool) { haveAVX, haveAVX2, haveAVX512 = avx, avx2, avx512 }(haveAVX, haveAVX2, haveAVX512)
	haveAVX, haveAVX2, haveAVX512 = false, false, false
	checkRaggedTiles(t)
}

// TestRaggedTilesAVX2Kernels repeats it with the ZMM kernel switched off,
// so on an AVX-512 host the YMM float32 kernel takes every tile.
func TestRaggedTilesAVX2Kernels(t *testing.T) {
	if !haveAVX {
		t.Skip("no AVX on this machine")
	}
	defer func(avx512 bool) { haveAVX512 = avx512 }(haveAVX512)
	haveAVX512 = false
	checkRaggedTiles(t)
}

// BenchmarkKern times each float32 micro-kernel alone: one 4x16 tile over
// a KC-deep A panel and B sliver, both resident in L1.
func BenchmarkKern(b *testing.B) {
	ap := make([]float32, packMR*packKC)
	bp := make([]float32, packKC*packNR)
	fillRand(ap, 1)
	fillRand(bp, 2)
	bias := make([]float32, packMR)
	var dst [packMR * packNR]float32
	for _, k := range []struct {
		name string
		have bool
		kern func(dst *float32, ldd int, ap, bp *float32, kc int, bias *float32, flags int)
	}{
		{"avx2", haveAVX, kern4x16AVX},
		{"avx512", haveAVX512, kern4x16AVX512},
	} {
		b.Run(k.name, func(b *testing.B) {
			if !k.have {
				b.Skip("this machine (or build) has no " + k.name + " float32 kernel")
			}
			for i := 0; i < b.N; i++ {
				k.kern(&dst[0], packNR, &ap[0], &bp[0], packKC, &bias[0], kernInit)
			}
			b.ReportMetric(float64(packMR*packNR*packKC)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gprod/s")
		})
	}
}

// BenchmarkKernI8 times the int8 micro-kernel alone: one 4x8 tile over a
// KC-deep A panel and B sliver, both resident in L1.
func BenchmarkKernI8(b *testing.B) {
	if !haveAVX2 {
		b.Skip("no AVX2 on this machine")
	}
	a := make([]int8, packMR*packKC)
	bb := make([]int8, packKC*packNRI8)
	fillRandI8(a, 1)
	fillRandI8(bb, 2)
	apan := PackAI8(a, packMR, packKC, packKC).panels(0, 0, packKC, 1)
	wide := make([]int16, packKC*packNRI8)
	widenPairs(wide, bb, packKC)
	var dst [packMR * packNRI8]int32
	for i := 0; i < b.N; i++ {
		kern4x8I8AVX2(&dst[0], packNRI8, &apan[0], &wide[0], packKC/2, 1)
	}
	b.ReportMetric(float64(packMR*packNRI8*packKC)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}
