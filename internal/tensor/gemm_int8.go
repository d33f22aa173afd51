package tensor

// Int8 blocked GEMM: the quantized inference path's compute core.
//
// Operands are symmetric int8 (zero-point 0): weights quantized per
// output channel at plan-compile time, activations quantized per tensor
// at each layer entry. Accumulation is int32 — integer adds are exact and
// associative, so the quantized path is bit-identical across blocking,
// kernel choice, and worker count by construction, with no accumulation-
// order contract needed. The caller dequantizes the int32 accumulators
// back to float32 (DequantizeRows), so every layer boundary — and thus
// every partition cut point — stays float32 on the wire.

// GemmPackedI8 computes dst(int32) = pa · b for a prepacked int8 A and an
// in-memory int8 k x n matrix b with row stride ldb. dst is fully
// overwritten (no bias; bias joins at dequantization, in float32).
func GemmPackedI8(dst []int32, pa *PackedAI8, b []int8, ldb, n int) {
	gemmI8Drive(dst, pa, bSrcI8{mat: b, ldb: ldb}, n)
}

// GemmConvI8 is GemmConv's int8 twin: a direct convolution over a
// quantized input image src, accumulating int32 into dst.
func GemmConvI8(dst []int32, pa *PackedAI8, src []int8, g ConvGeom) {
	n := g.Cols()
	b := bSrcI8{conv: src, g: g}
	if g.pointwise() {
		b = bSrcI8{mat: src, ldb: g.H * g.W}
	}
	gemmI8Drive(dst, pa, b, n)
}

// bSrcI8 mirrors bSrc for int8 operands.
type bSrcI8 struct {
	mat  []int8
	ldb  int
	conv []int8
	g    ConvGeom
}

func (s *bSrcI8) pack(dst []int8, p0, kc, j0, nc int) {
	if s.mat != nil {
		packBBlock(dst, s.mat, s.ldb, p0, kc, j0, nc)
		return
	}
	packBConv(dst, s.conv, s.g, p0, kc, j0, nc)
}

func gemmI8Drive(dst []int32, pa *PackedAI8, src bSrcI8, n int) {
	m, k := pa.m, pa.k
	if m <= 0 || n <= 0 {
		return
	}
	workers := gemmWorkers(m, k, n, (n+packNRI8-1)/packNRI8)
	if workers <= 1 {
		bufB := GetBufI8(bPanelLen[int8](k, n))
		gemmI8Cols(dst, pa, &src, n, 0, n, bufB)
		PutBufI8(bufB)
		return
	}
	gemmI8Parallel(dst, *pa, src, n, workers)
}

// gemmI8Parallel mirrors gemmPackedParallel: by-value params keep the
// single-worker fast path allocation-free; int32 accumulation makes any
// chunking bit-identical regardless, but chunks stay NR-aligned so no two
// workers share a packed sliver or an output tile.
func gemmI8Parallel(dst []int32, pa PackedAI8, src bSrcI8, n, workers int) {
	fanOut(n, workers, packNRI8, func(lo, hi int) {
		wsrc := src
		bufB := GetBufI8(bPanelLen[int8](pa.k, hi-lo))
		gemmI8Cols(dst, &pa, &wsrc, n, lo, hi, bufB)
		PutBufI8(bufB)
	})
}

func gemmI8Cols(dst []int32, pa *PackedAI8, src *bSrcI8, n, j0, j1 int, bufB []int8) {
	m, k := pa.m, pa.k
	for i := 0; i < m; i++ {
		row := dst[i*n+j0 : i*n+j1]
		for j := range row {
			row[j] = 0
		}
	}
	// One sliver in pair layout: it stays in L1 while every A panel of the
	// block streams past it.
	var wide [packKC * packNRI8]int16
	for jc := j0; jc < j1; jc += packNC {
		nc := min(packNC, j1-jc)
		nSlivers := (nc + packNRI8 - 1) / packNRI8
		for bIdx, pc := 0, 0; pc < k; bIdx, pc = bIdx+1, pc+packKC {
			kc := min(packKC, k-pc)
			pairs := pairDepth(kc) / 2
			src.pack(bufB, pc, kc, jc, nc)
			for s := 0; s < nSlivers; s++ {
				j := jc + s*packNRI8
				nr := min(packNRI8, j1-j)
				widenPairs(wide[:], bufB[s*kc*packNRI8:], kc)
				i0 := 0
				if nr == packNRI8 && m >= packMR {
					// Every full tile of the sliver's column in one call.
					i0 = m &^ (packMR - 1)
					kernTilesI8(dst[j:], n, pa.panels(bIdx, 0, kc, i0/packMR), wide[:], pairs, i0/packMR)
				}
				for ; i0 < m; i0 += packMR {
					// Ragged tile: zero-padded stack copy, as in
					// gemmPackedCols.
					off := i0*n + j
					mr := min(packMR, m-i0)
					var tile [packMR * packNRI8]int32
					for r := 0; r < mr; r++ {
						copy(tile[r*packNRI8:r*packNRI8+nr], dst[off+r*n:])
					}
					kernTilesI8(tile[:], packNRI8, pa.panels(bIdx, i0, kc, 1), wide[:], pairs, 1)
					for r := 0; r < mr; r++ {
						copy(dst[off+r*n:off+r*n+nr], tile[r*packNRI8:])
					}
				}
			}
		}
	}
}

// kernTilesI8 is kernTile for the int8 micro-kernels, over a column of
// tiles: panels full MR x NR tiles of dst, each MR rows below the last,
// from as many consecutive pair-layout A panels against one pair-layout B
// sliver, pairs (p, p+1) steps each.
func kernTilesI8(dst []int32, ldd int, ap, bp []int16, pairs, panels int) {
	if haveAVX2 {
		kern4x8I8AVX2(&dst[0], ldd, &ap[0], &bp[0], pairs, panels)
		return
	}
	for p := 0; p < panels; p++ {
		d := dst[p*packMR*ldd:]
		kern4x8i8(d, d[ldd:], d[2*ldd:], d[3*ldd:], ap[p*2*packMR*pairs:], bp, pairs)
	}
}

// kern4x8i8 is the int8 register-tile micro-kernel: int32 accumulators in
// locals, each taking one (p, p+1) pair's two products per step — what the
// assembly kernel's multiply-add of int16 pairs computes, lane for lane.
func kern4x8i8(d0, d1, d2, d3 []int32, ap, bp []int16, pairs int) {
	c00, c01, c02, c03, c04, c05, c06, c07 := d0[0], d0[1], d0[2], d0[3], d0[4], d0[5], d0[6], d0[7]
	c10, c11, c12, c13, c14, c15, c16, c17 := d1[0], d1[1], d1[2], d1[3], d1[4], d1[5], d1[6], d1[7]
	c20, c21, c22, c23, c24, c25, c26, c27 := d2[0], d2[1], d2[2], d2[3], d2[4], d2[5], d2[6], d2[7]
	c30, c31, c32, c33, c34, c35, c36, c37 := d3[0], d3[1], d3[2], d3[3], d3[4], d3[5], d3[6], d3[7]
	ap = ap[:pairs*2*packMR]
	for len(ap) >= 2*packMR && len(bp) >= 2*packNRI8 {
		a0, e0, a1, e1 := int32(ap[0]), int32(ap[1]), int32(ap[2]), int32(ap[3])
		a2, e2, a3, e3 := int32(ap[4]), int32(ap[5]), int32(ap[6]), int32(ap[7])
		b0, f0, b1, f1 := int32(bp[0]), int32(bp[1]), int32(bp[2]), int32(bp[3])
		b2, f2, b3, f3 := int32(bp[4]), int32(bp[5]), int32(bp[6]), int32(bp[7])
		b4, f4, b5, f5 := int32(bp[8]), int32(bp[9]), int32(bp[10]), int32(bp[11])
		b6, f6, b7, f7 := int32(bp[12]), int32(bp[13]), int32(bp[14]), int32(bp[15])
		c00 += a0*b0 + e0*f0
		c01 += a0*b1 + e0*f1
		c02 += a0*b2 + e0*f2
		c03 += a0*b3 + e0*f3
		c04 += a0*b4 + e0*f4
		c05 += a0*b5 + e0*f5
		c06 += a0*b6 + e0*f6
		c07 += a0*b7 + e0*f7
		c10 += a1*b0 + e1*f0
		c11 += a1*b1 + e1*f1
		c12 += a1*b2 + e1*f2
		c13 += a1*b3 + e1*f3
		c14 += a1*b4 + e1*f4
		c15 += a1*b5 + e1*f5
		c16 += a1*b6 + e1*f6
		c17 += a1*b7 + e1*f7
		c20 += a2*b0 + e2*f0
		c21 += a2*b1 + e2*f1
		c22 += a2*b2 + e2*f2
		c23 += a2*b3 + e2*f3
		c24 += a2*b4 + e2*f4
		c25 += a2*b5 + e2*f5
		c26 += a2*b6 + e2*f6
		c27 += a2*b7 + e2*f7
		c30 += a3*b0 + e3*f0
		c31 += a3*b1 + e3*f1
		c32 += a3*b2 + e3*f2
		c33 += a3*b3 + e3*f3
		c34 += a3*b4 + e3*f4
		c35 += a3*b5 + e3*f5
		c36 += a3*b6 + e3*f6
		c37 += a3*b7 + e3*f7
		ap = ap[2*packMR:]
		bp = bp[2*packNRI8:]
	}
	d0[0], d0[1], d0[2], d0[3], d0[4], d0[5], d0[6], d0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	d1[0], d1[1], d1[2], d1[3], d1[4], d1[5], d1[6], d1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	d2[0], d2[1], d2[2], d2[3], d2[4], d2[5], d2[6], d2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	d3[0], d3[1], d3[2], d3[3], d3[4], d3[5], d3[6], d3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// GemvI8 is the quantized fully-connected path: int8 dot products with
// int32 accumulation, dequantized per output row in the same pass.
// dst[o] = float32(Σ w[o]·x) · deq[o] + bias[o].
func GemvI8(dst []float32, w, x []int8, deq, bias []float32, m, k int) {
	x = x[:k]
	for o := 0; o < m; o++ {
		row := w[o*k : o*k+k]
		var acc int32
		for i, v := range x {
			acc += int32(v) * int32(row[i])
		}
		f := float32(acc) * deq[o]
		if bias != nil {
			f += bias[o]
		}
		dst[o] = f
	}
}

// Quantize writes round-half-away-from-zero(src[i]/scale) clamped to
// [-127, 127] — symmetric quantization, zero-point 0 — by the rule of
// quantizeScalar: f = src[i] * (1/scale), then ±127 at or past the clamp,
// else f ± 0.5 truncated, and 0 for a NaN f. The rule is platform-
// independent and the AVX2 pass reproduces it bit for bit, so quantized
// values (and everything downstream, given exact int32 accumulation) are
// deterministic everywhere.
func Quantize(dst []int8, src []float32, scale float32) {
	inv := float32(0)
	if scale != 0 {
		inv = 1 / scale
	}
	dst = dst[:len(src)]
	if n := len(src) &^ 7; haveAVX2 && n > 0 {
		quantizeAVX2(&dst[0], &src[0], n, inv)
		dst, src = dst[n:], src[n:]
	}
	quantizeScalar(dst, src, inv)
}

// quantizeScalar is Quantize's rule, one value at a time: the portable
// path, and the vector pass's tail.
func quantizeScalar(dst []int8, src []float32, inv float32) {
	for i, v := range src {
		f := v * inv
		switch {
		case f >= 127:
			dst[i] = 127
		case f <= -127:
			dst[i] = -127
		case f >= 0:
			dst[i] = int8(f + 0.5)
		default:
			dst[i] = int8(f - 0.5) // a NaN f lands here, and converts to 0
		}
	}
}

// MaxAbs returns max(|s[i]|), the calibration statistic behind every
// activation scale: +0 for an empty slice, and NaNs are passed over.
func MaxAbs(s []float32) float32 {
	var m float32
	if n := len(s) &^ 7; haveAVX2 && n > 0 {
		m = maxAbsAVX2(&s[0], n)
		s = s[n:]
	}
	for _, v := range s {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// DequantizeRows converts the int32 accumulators occupying dst's storage
// (see AsInt32) into float32 in place: dst[i*n+j] = acc[i*n+j]*deq[i] +
// bias[i]. Each slot is read as int32 then overwritten as float32, so the
// conversion needs no second buffer.
func DequantizeRows(dst []float32, deq, bias []float32, m, n int) {
	acc := AsInt32(dst)
	for i := 0; i < m; i++ {
		d := deq[i]
		var b float32
		if bias != nil {
			b = bias[i]
		}
		row := acc[i*n : i*n+n]
		out := dst[i*n : i*n+n]
		for j, v := range row {
			out[j] = float32(v)*d + b
		}
	}
}
