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
		gemmPackedDrive(dst, &pa, bSrc{mat: b, ldb: n}, bias, n, false)
		pa.Release()
		return
	}
	gemmRef(dst, a, b, bias, m, k, n)
}

// GemmConvPacked computes a direct (im2col-free) convolution as an
// implicit GEMM: dst = pa · B(src) + bias, where pa is the [m, InC*K*K]
// filter matrix prepacked by PackA and B(src) is the virtual im2col matrix
// described by g, gathered into packed panels one cache block at a time.
// With relu set every output is clamped the way the ReLU layer clamps it
// (v < 0 becomes +0; -0 and NaN pass through) before it is stored, so a
// following ReLU step has nothing left to do. Values and per-element
// accumulation order match im2col + Gemm exactly, so the two kernels are
// bit-identical; this one never materializes the column matrix. For a
// 1x1/stride-1/pad-0 convolution the virtual matrix is the input itself
// ([InC, H*W] row-major), so it is packed as a plain in-memory operand.
func GemmConvPacked(dst []float32, pa *PackedA, bias, src []float32, g ConvGeom, relu bool) {
	b := bSrc{conv: src, g: g}
	if g.pointwise() {
		b = bSrc{mat: src, ldb: g.H * g.W}
	}
	gemmPackedDrive(dst, pa, b, bias, g.Cols(), relu)
}

// GemmConv is GemmConvPacked for row-major filter weights w ([m,
// InC*K*K]) that no one has packed: it packs them into a pooled buffer,
// runs the same driver and releases the buffer. Standalone layer calls and
// int8 calibration passes come through here; compiled float32 plans pack
// once and call GemmConvPacked.
func GemmConv(dst, w, bias []float32, m int, src []float32, g ConvGeom, relu bool) {
	if m <= 0 || g.Cols() <= 0 {
		return
	}
	var pa PackedA
	packAPooledInto(&pa, w, m, g.Rows(), g.Rows())
	GemmConvPacked(dst, &pa, bias, src, g, relu)
	pa.Release()
}

// bSrc is the B operand of the packed driver: an in-memory matrix or a
// convolution input image. A plain value struct (not a closure) so the
// per-call GEMM paths stay allocation-free.
type bSrc struct {
	mat  []float32 // in-memory matrix ...
	ldb  int       // ... with this row stride
	conv []float32 // convolution input image described by g
	g    ConvGeom
}

func (s *bSrc) pack(dst []float32, p0, kc, j0, nc int) {
	if s.mat != nil {
		packBBlock(dst, s.mat, s.ldb, p0, kc, j0, nc)
		return
	}
	packBConv(dst, s.conv, s.g, p0, kc, j0, nc)
}

// gemmWorkers is how many column (or row) chunks a GEMM of the given size
// is cut into: one below the parallel threshold, otherwise one per CPU but
// never more than units, the number of register-tile-aligned pieces.
func gemmWorkers(m, k, n, units int) int {
	if 2*int64(m)*int64(k)*int64(n) <= gemmParallelFLOPs {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), units)
}

// fanOut cuts [0, n) into workers chunks, each a multiple of align long
// (the last takes what is left), and runs body over every chunk: the first
// on the calling goroutine, each further one on a goroutine of its own. It
// returns when all have finished. This is the only place the package
// starts goroutines; the float32, reference and int8 drivers all come
// through it, so a GEMM on a two-CPU host forks once.
func fanOut(n, workers, align int, body func(lo, hi int)) {
	chunk := ((n+workers-1)/workers + align - 1) / align * align
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	body(0, min(chunk, n))
	wg.Wait()
}

func gemmPackedDrive(dst []float32, pa *PackedA, src bSrc, bias []float32, n int, relu bool) {
	m, k := pa.m, pa.k
	if m <= 0 || n <= 0 {
		return
	}
	workers := gemmWorkers(m, k, n, (n+packNR-1)/packNR)
	if workers <= 1 {
		bufB := GetBuf(bPanelLen(k, n))
		gemmPackedCols(dst, pa, &src, bias, relu, n, 0, n, bufB)
		PutBuf(bufB)
		return
	}
	gemmPackedParallel(dst, *pa, src, bias, n, workers, relu)
}

// gemmPackedParallel fans NR-aligned column chunks out across workers. It
// takes PackedA and bSrc by value so the single-worker fast path's locals
// never escape to the heap: only this function's own copies are captured
// by the chunk closure. Chunks are NR-aligned so no two workers share
// a packed sliver or an output tile; each worker owns a disjoint column
// range of dst and packs b for its own range, keeping per-element
// accumulation order identical at any worker count.
func gemmPackedParallel(dst []float32, pa PackedA, src bSrc, bias []float32, n, workers int, relu bool) {
	fanOut(n, workers, packNR, func(lo, hi int) {
		wsrc := src
		bufB := GetBuf(bPanelLen(pa.k, hi-lo))
		gemmPackedCols(dst, &pa, &wsrc, bias, relu, n, lo, hi, bufB)
		PutBuf(bufB)
	})
}

// bPanelLen is the pooled buffer size for one packed B block covering a
// column span of width span.
func bPanelLen(k, span int) int {
	kc := min(k, packKC)
	nc := min(span, packNC)
	return kc * ((nc + packNR - 1) &^ (packNR - 1))
}

// Micro-kernel epilogue flags. kernInit starts the tile's accumulators
// from the broadcast bias instead of loading them from dst (the first KC
// block of a GEMM); kernReLU clamps them at zero before the store (the
// last KC block of a convolution whose ReLU the plan fused into it).
const (
	kernInit = 1 << iota
	kernReLU
)

// gemmPackedCols runs the blocked loops for dst columns [j0, j1): for each
// (NC, KC) cache block, pack b into slivers once, then sweep every A panel
// past each sliver with the register-tile micro-kernel. The first KC block
// starts each tile from its rows' bias, later blocks accumulate into what
// the earlier ones stored, and the last one applies relu on the way out,
// so dst is written once per KC block and read once per block after the
// first. That preserves the per-element k-increasing accumulation order
// exactly (one float32 add per product, chunk after chunk). k must be
// positive.
func gemmPackedCols(dst []float32, pa *PackedA, src *bSrc, bias []float32, relu bool, n, j0, j1 int, bufB []float32) {
	m, k := pa.m, pa.k
	// Bias of a ragged last panel, zero-padded to MR rows; all zero (and
	// used for every panel) when bias is nil.
	var padBias [packMR]float32
	if tail := m % packMR; bias != nil && tail != 0 {
		copy(padBias[:], bias[m-tail:])
	}
	for jc := j0; jc < j1; jc += packNC {
		nc := min(packNC, j1-jc)
		nSlivers := (nc + packNR - 1) / packNR
		for bIdx, pc := 0, 0; pc < k; bIdx, pc = bIdx+1, pc+packKC {
			kc := min(packKC, k-pc)
			flags := 0
			if pc == 0 {
				flags |= kernInit
			}
			if relu && pc+kc == k {
				flags |= kernReLU
			}
			src.pack(bufB, pc, kc, jc, nc)
			for s := 0; s < nSlivers; s++ {
				j := jc + s*packNR
				nr := min(packNR, j1-j)
				bsl := bufB[s*kc*packNR:]
				for i0 := 0; i0 < m; i0 += packMR {
					apan := pa.panel(bIdx, i0, kc)
					off := i0*n + j
					mr := min(packMR, m-i0)
					tb := padBias[:]
					if bias != nil && mr == packMR {
						tb = bias[i0 : i0+packMR]
					}
					if mr == packMR && nr == packNR {
						kernTile(dst[off:], n, apan, bsl, kc, tb, flags)
						continue
					}
					// Ragged tile: run the full-tile kernel on a zero-padded
					// stack copy and keep only the valid mr x nr corner. The
					// packed panels are zero-padded to full geometry, so the
					// extra lanes compute values nobody reads, and the valid
					// ones see the same operation sequence as a full tile.
					var tile [packMR * packNR]float32
					if flags&kernInit == 0 {
						for r := 0; r < mr; r++ {
							copy(tile[r*packNR:r*packNR+nr], dst[off+r*n:])
						}
					}
					kernTile(tile[:], packNR, apan, bsl, kc, tb, flags)
					for r := 0; r < mr; r++ {
						copy(dst[off+r*n:off+r*n+nr], tile[r*packNR:])
					}
				}
			}
		}
	}
}

// kernTile runs one KC chunk of the full MR x NR tile whose rows start at
// dst[0], dst[ldd], ... through the assembly micro-kernel when the CPU has
// it and the portable one otherwise; the two are bit-identical. bias holds
// the tile's MR row biases and is read only under kernInit.
func kernTile(dst []float32, ldd int, ap, bp []float32, kc int, bias []float32, flags int) {
	if haveAVX {
		kern4x8AVX(&dst[0], ldd, &ap[0], &bp[0], kc, &bias[0], flags)
		return
	}
	kern4x8(dst, dst[ldd:], dst[2*ldd:], dst[3*ldd:], ap, bp, kc, bias, flags)
}

// kern4x8 is the register-tile micro-kernel: a full 4-row by 8-column dst
// tile accumulated across one KC chunk. The 32 accumulators live in
// locals for the whole k loop — dst is read once and written once per
// chunk — and each accumulator receives its products one float32 add at a
// time in increasing k order, preserving the determinism contract. Under
// kernInit the accumulators start from bias[0..3] (one per row) and dst is
// not read; under kernReLU each is clamped exactly as the ReLU layer
// clamps (only v < 0 changes, to +0) before it is stored.
func kern4x8(d0, d1, d2, d3, ap, bp []float32, kc int, bias []float32, flags int) {
	var (
		c00, c01, c02, c03, c04, c05, c06, c07 float32
		c10, c11, c12, c13, c14, c15, c16, c17 float32
		c20, c21, c22, c23, c24, c25, c26, c27 float32
		c30, c31, c32, c33, c34, c35, c36, c37 float32
	)
	if flags&kernInit != 0 {
		b0, b1, b2, b3 := bias[0], bias[1], bias[2], bias[3]
		c00, c01, c02, c03, c04, c05, c06, c07 = b0, b0, b0, b0, b0, b0, b0, b0
		c10, c11, c12, c13, c14, c15, c16, c17 = b1, b1, b1, b1, b1, b1, b1, b1
		c20, c21, c22, c23, c24, c25, c26, c27 = b2, b2, b2, b2, b2, b2, b2, b2
		c30, c31, c32, c33, c34, c35, c36, c37 = b3, b3, b3, b3, b3, b3, b3, b3
	} else {
		c00, c01, c02, c03, c04, c05, c06, c07 = d0[0], d0[1], d0[2], d0[3], d0[4], d0[5], d0[6], d0[7]
		c10, c11, c12, c13, c14, c15, c16, c17 = d1[0], d1[1], d1[2], d1[3], d1[4], d1[5], d1[6], d1[7]
		c20, c21, c22, c23, c24, c25, c26, c27 = d2[0], d2[1], d2[2], d2[3], d2[4], d2[5], d2[6], d2[7]
		c30, c31, c32, c33, c34, c35, c36, c37 = d3[0], d3[1], d3[2], d3[3], d3[4], d3[5], d3[6], d3[7]
	}
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
	if flags&kernReLU != 0 {
		for _, d := range [packMR][]float32{d0[:packNR], d1[:packNR], d2[:packNR], d3[:packNR]} {
			for j, v := range d {
				if v < 0 {
					d[j] = 0
				}
			}
		}
	}
}

// gemmRef is the streaming reference kernel (the pre-packing engine
// kernel, kept for small problems and as the packed path's bit-identity
// oracle): four output rows at a time, each row of b loaded once and
// applied to four accumulator rows, with row blocks fanned out across
// CPUs for large problems.
func gemmRef(dst, a, b, bias []float32, m, k, n int) {
	workers := gemmWorkers(m, k, n, (m+3)/4)
	if workers <= 1 {
		gemmRows(dst, a, b, bias, k, n, 0, m)
		return
	}
	// Chunks are 4-row aligned so every full block stays on the fast
	// 4-row path; each worker owns a disjoint row range of dst.
	fanOut(m, workers, 4, func(lo, hi int) {
		gemmRows(dst, a, b, bias, k, n, lo, hi)
	})
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
