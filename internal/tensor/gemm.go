package tensor

import (
	"runtime"
	"sync"
)

// gemmParallelFLOPs is the multiply-add count above which Gemm fans column
// blocks out across CPUs. Below it the goroutine hand-off costs more than
// it saves. The value matches the convolution engine's historical
// parallel threshold so algorithm choices stay comparable across layers.
const gemmParallelFLOPs = 4 << 20

// gemmPackedFLOPs is the multiply-add count above which Gemm routes
// through the packed blocked kernel. Below it the panel-packing pass costs
// more than the cache locality it buys, and the streaming reference kernel
// wins.
const gemmPackedFLOPs = 1 << 17

// Gemm computes dst = a·b (+ bias), the one matrix kernel every dense
// layer in the engine routes through: a is m×k, b is k×n, dst is m×n,
// all row-major float32. bias, when non-nil, has length m and seeds each
// output row (dst[i][j] starts at bias[i]); a nil bias seeds rows with
// zero. dst is fully overwritten.
//
// Large problems run the packed blocked kernel: both operands are
// repacked into register-tile panels (MR×KC for a, KC×NR for b) in pooled
// aligned buffers, and an MR×NR micro-kernel keeps every accumulator in a
// local across the whole k loop, so dst is touched once per KC block
// instead of once per k step. Small problems keep the streaming reference
// kernel, and n==1 takes a plain dot-product path.
//
// Determinism contract: for every output element the accumulation order
// is strictly increasing in k with one float32 addition per product,
// independent of kernel choice, blocking, and worker count, so results
// are bit-identical across machines, GOMAXPROCS settings, and the packed,
// unpacked, and n==1 paths.
func Gemm(dst, a, b, bias []float32, m, k, n int) {
	if m <= 0 || n <= 0 {
		return
	}
	if n >= packNR && m >= packMR && 2*int64(m)*int64(k)*int64(n) >= gemmPackedFLOPs {
		var pa PackedA
		packAPooledInto(&pa, a, m, k, k)
		gemmPackedDrive(dst, &pa, bSrc{mat: b, ldb: n}, bias, n)
		pa.Release()
		return
	}
	gemmRef(dst, a, b, bias, m, k, n)
}

// GemmConv computes a direct (im2col-free) convolution as an implicit
// GEMM: dst = w · B(src) + bias, where w is [m, InC*K*K] filter weights
// and B(src) is the virtual im2col matrix described by g, gathered into
// packed panels one cache block at a time. Values and per-element
// accumulation order match im2col + Gemm exactly, so the two kernels are
// bit-identical; this one never materializes the column matrix. For a
// 1x1/stride-1/pad-0 convolution the virtual matrix is the input itself
// ([InC, H*W] row-major), so it is packed as a plain in-memory operand.
func GemmConv(dst, w, bias []float32, m int, src []float32, g ConvGeom) {
	k, n := g.Rows(), g.Cols()
	if m <= 0 || n <= 0 {
		return
	}
	b := bSrc{conv: src, g: g}
	if g.pointwise() {
		b = bSrc{mat: src, ldb: g.H * g.W}
	}
	var pa PackedA
	packAPooledInto(&pa, w, m, k, k)
	gemmPackedDrive(dst, &pa, b, bias, n)
	pa.Release()
}

// GemmBPack is Gemm with the b operand supplied as a packer callback
// instead of a materialized matrix. It exists for callers with exotic
// virtual operands; the convolution path uses the allocation-free
// GemmConv.
func GemmBPack(dst, a, bias []float32, m, k, n int, packB BPacker) {
	if m <= 0 || n <= 0 {
		return
	}
	var pa PackedA
	packAPooledInto(&pa, a, m, k, k)
	gemmPackedDrive(dst, &pa, bSrc{pk: packB}, bias, n)
	pa.Release()
}

// GemmPacked runs the blocked kernel with a prepacked A (typically layer
// weights packed once at plan-compile time) against an in-memory k x n
// matrix b with row stride ldb. dst is m×n for pa's (m, k).
func GemmPacked(dst []float32, pa *PackedA, b []float32, ldb int, bias []float32, n int) {
	gemmPackedDrive(dst, pa, bSrc{mat: b, ldb: ldb}, bias, n)
}

// bSrc is the B operand of the packed driver: an in-memory matrix, a
// convolution input image, or a caller packer. A plain value struct (not
// a closure) so the per-call GEMM paths stay allocation-free.
type bSrc struct {
	mat  []float32 // in-memory matrix ...
	ldb  int       // ... with this row stride
	conv []float32 // convolution input image described by g
	g    ConvGeom
	pk   BPacker // caller-supplied packer (GemmBPack)
}

func (s *bSrc) pack(dst []float32, p0, kc, j0, nc int) {
	switch {
	case s.mat != nil:
		packBBlock(dst, s.mat, s.ldb, p0, kc, j0, nc)
	case s.conv != nil:
		packBConv(dst, s.conv, s.g, p0, kc, j0, nc)
	default:
		s.pk(dst, p0, kc, j0, nc)
	}
}

func gemmPackedDrive(dst []float32, pa *PackedA, src bSrc, bias []float32, n int) {
	m, k := pa.m, pa.k
	if m <= 0 || n <= 0 {
		return
	}
	workers := 1
	if flops := 2 * int64(m) * int64(k) * int64(n); flops > gemmParallelFLOPs {
		workers = runtime.GOMAXPROCS(0)
		if mx := (n + packNR - 1) / packNR; workers > mx {
			workers = mx
		}
	}
	if workers <= 1 {
		bufB := GetBuf(bPanelLen(k, n))
		gemmPackedCols(dst, pa, &src, bias, n, 0, n, bufB)
		PutBuf(bufB)
		return
	}
	gemmPackedParallel(dst, *pa, src, bias, n, workers)
}

// gemmPackedParallel fans NR-aligned column chunks out across workers. It
// takes PackedA and bSrc by value so the single-worker fast path's locals
// never escape to the heap: only this function's own copies are captured
// by the goroutine closures. Chunks are NR-aligned so no two workers share
// a packed sliver or an output tile; each worker owns a disjoint column
// range of dst and packs b for its own range, keeping per-element
// accumulation order identical at any worker count.
func gemmPackedParallel(dst []float32, pa PackedA, src bSrc, bias []float32, n, workers int) {
	chunk := ((n+workers-1)/workers + packNR - 1) &^ (packNR - 1)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			wsrc := src
			bufB := GetBuf(bPanelLen(pa.k, hi-lo))
			gemmPackedCols(dst, &pa, &wsrc, bias, n, lo, hi, bufB)
			PutBuf(bufB)
		}(lo, hi)
	}
	wg.Wait()
}

// bPanelLen is the pooled buffer size for one packed B block covering a
// column span of width span.
func bPanelLen(k, span int) int {
	kc := min(k, packKC)
	nc := min(span, packNC)
	return kc * ((nc + packNR - 1) &^ (packNR - 1))
}

// gemmPackedCols runs the blocked loops for dst columns [j0, j1): for each
// (NC, KC) cache block, pack b into slivers once, then sweep every A panel
// past each sliver with the register-tile micro-kernel. dst rows are
// seeded with bias up front; each KC block's partial sums accumulate into
// dst, which preserves the per-element k-increasing accumulation order
// exactly (one float32 add per product, chunk after chunk).
func gemmPackedCols(dst []float32, pa *PackedA, src *bSrc, bias []float32, n, j0, j1 int, bufB []float32) {
	m, k := pa.m, pa.k
	for i := 0; i < m; i++ {
		row := dst[i*n+j0 : i*n+j1]
		var s float32
		if bias != nil {
			s = bias[i]
		}
		for j := range row {
			row[j] = s
		}
	}
	for jc := j0; jc < j1; jc += packNC {
		nc := min(packNC, j1-jc)
		nSlivers := (nc + packNR - 1) / packNR
		for bIdx, pc := 0, 0; pc < k; bIdx, pc = bIdx+1, pc+packKC {
			kc := min(packKC, k-pc)
			src.pack(bufB, pc, kc, jc, nc)
			for s := 0; s < nSlivers; s++ {
				j := jc + s*packNR
				nr := min(packNR, j1-j)
				bsl := bufB[s*kc*packNR:]
				for i0 := 0; i0 < m; i0 += packMR {
					apan := pa.panel(bIdx, i0, kc)
					off := i0*n + j
					mr := min(packMR, m-i0)
					if mr == packMR && nr == packNR {
						kernTile(dst[off:], n, apan, bsl, kc)
						continue
					}
					// Ragged tile: run the full-tile kernel on a zero-padded
					// stack copy and keep only the valid mr x nr corner. The
					// packed panels are zero-padded to full geometry, so the
					// extra lanes compute values nobody reads, and the valid
					// ones see the same operation sequence as a full tile.
					var tile [packMR * packNR]float32
					for r := 0; r < mr; r++ {
						copy(tile[r*packNR:r*packNR+nr], dst[off+r*n:])
					}
					kernTile(tile[:], packNR, apan, bsl, kc)
					for r := 0; r < mr; r++ {
						copy(dst[off+r*n:off+r*n+nr], tile[r*packNR:])
					}
				}
			}
		}
	}
}

// kernTile accumulates one KC chunk into the full MR x NR tile whose rows
// start at dst[0], dst[ldd], ... through the assembly micro-kernel when the
// CPU has it and the portable one otherwise; the two are bit-identical.
func kernTile(dst []float32, ldd int, ap, bp []float32, kc int) {
	if haveAVX {
		kern4x8AVX(&dst[0], ldd, &ap[0], &bp[0], kc)
		return
	}
	kern4x8(dst, dst[ldd:], dst[2*ldd:], dst[3*ldd:], ap, bp, kc)
}

// kern4x8 is the register-tile micro-kernel: a full 4-row by 8-column dst
// tile accumulated across one KC chunk. The 32 accumulators live in
// locals for the whole k loop — dst is read once and written once per
// chunk — and each accumulator receives its products one float32 add at a
// time in increasing k order, preserving the determinism contract.
func kern4x8(d0, d1, d2, d3, ap, bp []float32, kc int) {
	c00, c01, c02, c03, c04, c05, c06, c07 := d0[0], d0[1], d0[2], d0[3], d0[4], d0[5], d0[6], d0[7]
	c10, c11, c12, c13, c14, c15, c16, c17 := d1[0], d1[1], d1[2], d1[3], d1[4], d1[5], d1[6], d1[7]
	c20, c21, c22, c23, c24, c25, c26, c27 := d2[0], d2[1], d2[2], d2[3], d2[4], d2[5], d2[6], d2[7]
	c30, c31, c32, c33, c34, c35, c36, c37 := d3[0], d3[1], d3[2], d3[3], d3[4], d3[5], d3[6], d3[7]
	ap = ap[:kc*4]
	for len(ap) >= 4 && len(bp) >= 8 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		b4, b5, b6, b7 := bp[4], bp[5], bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
		ap = ap[4:]
		bp = bp[8:]
	}
	d0[0], d0[1], d0[2], d0[3], d0[4], d0[5], d0[6], d0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	d1[0], d1[1], d1[2], d1[3], d1[4], d1[5], d1[6], d1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	d2[0], d2[1], d2[2], d2[3], d2[4], d2[5], d2[6], d2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	d3[0], d3[1], d3[2], d3[3], d3[4], d3[5], d3[6], d3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// gemmRef is the streaming reference kernel (the pre-packing engine
// kernel, kept for small problems and as the packed path's bit-identity
// oracle): four output rows at a time, each row of b loaded once and
// applied to four accumulator rows, with row blocks fanned out across
// CPUs for large problems.
func gemmRef(dst, a, b, bias []float32, m, k, n int) {
	workers := 1
	if flops := 2 * int64(m) * int64(k) * int64(n); flops > gemmParallelFLOPs {
		workers = runtime.GOMAXPROCS(0)
		if mx := (m + 3) / 4; workers > mx {
			workers = mx
		}
	}
	if workers <= 1 {
		gemmRows(dst, a, b, bias, k, n, 0, m)
		return
	}
	// Chunks are 4-row aligned so every full block stays on the fast
	// 4-row path; each worker owns a disjoint row range of dst.
	chunk := ((m+workers-1)/workers + 3) &^ 3
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmRows(dst, a, b, bias, k, n, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmRows computes output rows [lo, hi).
func gemmRows(dst, a, b, bias []float32, k, n, lo, hi int) {
	if n == 1 {
		gemvRows(dst, a, b, bias, k, lo, hi)
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		gemm4(dst, a, b, bias, k, n, i)
	}
	for ; i < hi; i++ {
		gemm1(dst, a, b, bias, k, n, i)
	}
}

// gemm4 computes four adjacent output rows at once: each row of b is
// loaded once and applied to four accumulator rows, quartering the
// memory traffic of the row-at-a-time kernel.
func gemm4(dst, a, b, bias []float32, k, n, i int) {
	r0 := dst[(i+0)*n : (i+0)*n+n]
	r1 := dst[(i+1)*n : (i+1)*n+n]
	r2 := dst[(i+2)*n : (i+2)*n+n]
	r3 := dst[(i+3)*n : (i+3)*n+n]
	var s0, s1, s2, s3 float32
	if bias != nil {
		s0, s1, s2, s3 = bias[i], bias[i+1], bias[i+2], bias[i+3]
	}
	for j := range r0 {
		r0[j] = s0
		r1[j] = s1
		r2[j] = s2
		r3[j] = s3
	}
	a0 := a[(i+0)*k : (i+0)*k+k]
	a1 := a[(i+1)*k : (i+1)*k+k]
	a2 := a[(i+2)*k : (i+2)*k+k]
	a3 := a[(i+3)*k : (i+3)*k+k]
	for kk := 0; kk < k; kk++ {
		brow := b[kk*n : kk*n+n]
		c0, c1, c2, c3 := a0[kk], a1[kk], a2[kk], a3[kk]
		for j, v := range brow {
			r0[j] += c0 * v
			r1[j] += c1 * v
			r2[j] += c2 * v
			r3[j] += c3 * v
		}
	}
}

// gemm1 computes one output row (the <4-row remainder path).
func gemm1(dst, a, b, bias []float32, k, n, i int) {
	row := dst[i*n : i*n+n]
	var s float32
	if bias != nil {
		s = bias[i]
	}
	for j := range row {
		row[j] = s
	}
	arow := a[i*k : i*k+k]
	for kk := 0; kk < k; kk++ {
		c := arow[kk]
		brow := b[kk*n : kk*n+n]
		for j, v := range brow {
			row[j] += c * v
		}
	}
}

// gemvRows is the n==1 fast path: dst[o] = bias[o] + a[o]·x, a plain dot
// product per output row with no per-column loop overhead.
func gemvRows(dst, a, x, bias []float32, k, lo, hi int) {
	x = x[:k]
	for o := lo; o < hi; o++ {
		row := a[o*k : o*k+k]
		var sum float32
		if bias != nil {
			sum = bias[o]
		}
		for i, v := range x {
			sum += v * row[i]
		}
		dst[o] = sum
	}
}
