package tensor

import "unsafe"

// Panel packing for the blocked GEMM kernels.
//
// The micro-kernel computes an MR-row by NR-column tile of dst with every
// accumulator in a local, so its two streams must be contiguous:
//
//   - an A panel interleaves MR rows of a: for each k index p, the MR
//     values a[i..i+MR-1][p] are adjacent. Rows past m are zero-padded;
//     the padding rows are never stored to dst, so they cannot perturb
//     results.
//   - a B sliver interleaves NR columns of b: for each k index p, the NR
//     values b[p][j..j+NR-1] are adjacent. Columns past the valid range
//     are zero-padded and likewise never stored.
//
// Packing copies each matrix element exactly once per GEMM call, and in
// exchange the kernel reads both operands sequentially — the B sliver
// stays resident in L1 while every A panel streams past it.

// Register-tile and cache-block geometry. The A panels (MR rows) are
// shared by the float32 and int8 kernels; a B sliver's width follows the
// element type: NR = 16 float32 columns (one ZMM register, two YMM
// registers) and 8 int8 columns (the pair layout's eight dword lanes, see
// widenPairs). KC and NC are sized for this class of machine (tens of KiB
// of L1d, 1-2 MiB of L2): one float32 B block (KC x NC) fits in L2, one B
// sliver (KC x NR) in L1, and one A panel (MR x KC) spans a few KiB.
const (
	packMR   = 4
	packNR   = 16
	packNRI8 = 8
	packKC   = 256
	packNC   = 1024
)

// sliverWidth is the B sliver width for element type T: packNR for
// float32, packNRI8 for int8. It folds to a constant in each instantiation.
func sliverWidth[T float32 | int8]() int {
	var z T
	if unsafe.Sizeof(z) == unsafe.Sizeof(float32(0)) {
		return packNR
	}
	return packNRI8
}

// moveRow copies one full sliver row, sliverWidth[T]() values, from src to
// dst through a local, so the compiler emits register moves; a direct array
// assignment may alias and calls memmove. Only the branch for T's width is
// compiled into each instantiation.
func moveRow[T float32 | int8](dst, src []T) {
	if sliverWidth[T]() == packNR {
		v := *(*[packNR]T)(src)
		*(*[packNR]T)(dst) = v
		return
	}
	v := *(*[packNRI8]T)(src)
	*(*[packNRI8]T)(dst) = v
}

// PackedA is matrix a (m x k, row-major) repacked into MR-interleaved
// panels, grouped by KC block. Block offsets are closed-form — every
// block except the last has exactly KC depth — so the struct carries no
// per-block bookkeeping and lives on the caller's stack in the per-call
// packing path.
type PackedA struct {
	m, k   int
	data   []float32
	pooled bool
}

// PackedALen is the packed storage size, in elements, for an m x k
// matrix: full MR panels per KC block, ragged tails zero-padded.
func PackedALen(m, k int) int {
	panels := (m + packMR - 1) / packMR
	return panels * packMR * k
}

// blockOff is the data offset of KC block bIdx: every preceding block
// holds panels*MR*KC floats.
func (pa *PackedA) blockOff(bIdx int) int {
	panels := (pa.m + packMR - 1) / packMR
	return bIdx * panels * packMR * packKC
}

// panel returns the packed panel of rows [i0, i0+MR) within KC block
// bIdx, whose depth is kc.
func (pa *PackedA) panel(bIdx, i0, kc int) []float32 {
	off := pa.blockOff(bIdx) + (i0/packMR)*packMR*kc
	return pa.data[off : off+packMR*kc]
}

// PackA packs matrix a with row stride lda (lda >= k; lda == k for a
// contiguous matrix) into MR-interleaved panels. The result is immutable
// and safe for concurrent GEMM calls.
func PackA(a []float32, m, k, lda int) *PackedA {
	pa := &PackedA{m: m, k: k, data: make([]float32, PackedALen(m, k))}
	fillPanels(pa.data, a, m, k, lda)
	return pa
}

// packAPooledInto initializes pa with pool-backed storage; the caller
// must PutBuf(pa.data) when done.
func packAPooledInto(pa *PackedA, a []float32, m, k, lda int) {
	pa.m, pa.k = m, k
	pa.data = GetBuf(PackedALen(m, k))
	pa.pooled = true
	fillPanels(pa.data, a, m, k, lda)
}

// Release returns pool-backed packing storage. No-op for PackA results.
func (pa *PackedA) Release() {
	if pa.pooled {
		PutBuf(pa.data)
		pa.data = nil
	}
}

// Dims returns the packed matrix's (m, k).
func (pa *PackedA) Dims() (m, k int) { return pa.m, pa.k }

// fillPanels writes the MR-interleaved, KC-blocked packing of the m x k
// matrix a (row stride lda) into data, zero-padding the rows of a ragged
// last panel. Block bIdx starts at bIdx*panels*MR*KC (see blockOff).
func fillPanels[T float32 | int8](data, a []T, m, k, lda int) {
	di := 0
	for pc := 0; pc < k; pc += packKC {
		kc := min(packKC, k-pc)
		for i0 := 0; i0 < m; i0 += packMR {
			for p := pc; p < pc+kc; p++ {
				for r := 0; r < packMR; r++ {
					var v T
					if i0+r < m {
						v = a[(i0+r)*lda+p]
					}
					data[di] = v
					di++
				}
			}
		}
	}
}

// UnpackA reverses PackA into a freshly allocated m x k row-major matrix,
// dropping the zero padding. It exists for round-trip tests and debugging.
func (pa *PackedA) UnpackA() []float32 {
	out := make([]float32, pa.m*pa.k)
	for bIdx, pc := 0, 0; pc < pa.k; bIdx, pc = bIdx+1, pc+packKC {
		kc := min(packKC, pa.k-pc)
		for i0 := 0; i0 < pa.m; i0 += packMR {
			pan := pa.panel(bIdx, i0, kc)
			for p := 0; p < kc; p++ {
				for r := 0; r < packMR && i0+r < pa.m; r++ {
					out[(i0+r)*pa.k+pc+p] = pan[p*packMR+r]
				}
			}
		}
	}
	return out
}

// ConvGeom describes a convolution's implicit-GEMM B matrix: the virtual
// [InC*K*K, OutH*OutW] im2col matrix of an [InC, H, W] input under a KxK
// kernel with the given stride and padding. The direct-convolution packer
// gathers panel slivers of this matrix straight from the input image, so
// the full column matrix never exists in memory.
type ConvGeom struct {
	InC, H, W      int
	K, Stride, Pad int
	OutH, OutW     int
}

// Rows returns the virtual B matrix's row count (GEMM k).
func (g ConvGeom) Rows() int { return g.InC * g.K * g.K }

// Cols returns the virtual B matrix's column count (GEMM n).
func (g ConvGeom) Cols() int { return g.OutH * g.OutW }

// pointwise reports whether the virtual B matrix is the input image itself:
// a 1x1 kernel at stride 1 with no padding and an output the size of the
// input makes row ic the channel plane and column j the position, so
// B = src viewed as [InC, H*W].
func (g ConvGeom) pointwise() bool {
	return g.K == 1 && g.Stride == 1 && g.Pad == 0 && g.OutH == g.H && g.OutW == g.W
}

// packBBlock packs one cache block of an in-memory k x n matrix stored
// row-major with row stride ldb (ldb >= n; a larger ldb packs a sub-view
// of a wider matrix). dst receives ceil(nc/NR) slivers of kc*NR elements
// each, NR = sliverWidth[T](); within a sliver, element (p, c) lands at
// p*NR + c, and columns past nc (the ragged tail) are written as zeros.
// Full slivers move a row in register-sized copies; only the ragged last
// sliver pads.
func packBBlock[T float32 | int8](dst, b []T, ldb, p0, kc, j0, nc int) {
	w := sliverWidth[T]()
	di := 0
	for s := 0; s < nc; s += w {
		nr := min(w, nc-s)
		col := p0*ldb + j0 + s
		for p := 0; p < kc; p++ {
			d := dst[di : di+w]
			if nr == w {
				moveRow(d, b[col:])
			} else {
				copy(d[:nr], b[col:])
				clear(d[nr:])
			}
			di += w
			col += ldb
		}
	}
}

// A tap pattern covers patW consecutive columns of a sliver: the whole of
// an int8 sliver, either half of a float32 one.
const patW = 8

// How one tap's patW columns of a sliver read an input plane.
const (
	tapCopy   = iota // patW consecutive in-image positions: one copy
	tapStride        // patW in-image positions Stride apart in one input row
	tapZero          // an input row outside the image, or the ragged tail: all padding
	tapSpan          // stride 1 in one input row, padding at either end: zeros and one copy
	tapGather        // any other tap: per-column offsets
)

// tapPatterns holds one sliver's reading pattern per distinct tap of a
// block and per patW columns: its kind, and the plane offsets it reads —
// the first alone for tapCopy and tapStride; for tapSpan the first
// in-image column's, then the span [lo, hi) of columns in the image; one
// per column (-1 for a padding tap) for tapGather. It is sized for the
// widest sliver, float32's.
type tapPatterns struct {
	kind [packKC][packNR / patW]uint8
	offs [packKC][packNR / patW][patW]int32
}

// packBConv packs one cache block of the virtual im2col matrix directly
// from the input image src ([InC, H, W] row-major): row p decomposes into
// (ic, ky, kx), column j into (oy, ox), and padding positions pack as
// exact zeros — the same values buildColumns materializes, in the same
// row order, so direct convolution is bit-identical to im2col + GEMM.
//
// A sliver's columns fix, for each kernel tap (ky, kx), which positions
// of an input plane its row reads — the same positions for every input
// channel. So each sliver works out its tap patterns once, patW columns at
// a time, and every row is one channel's plane read through its tap's
// patterns. patW columns within one output row read, per tap, patW
// positions of one input row: a single copy at stride 1 and a strided read
// otherwise when they are all inside the image, zeros when the row is not,
// and at stride 1 zeros around one shorter copy when the row runs into
// padding. Any other tap — a padded one at stride 2, columns that wrap to
// the next output row (most of them on 14- and 7-wide planes), the ragged
// last sliver — gets a plane offset per column and gathers. Rows advance
// (tap, channel) by counting; nothing per row divides.
func packBConv[T float32 | int8](dst, src []T, g ConvGeom, p0, kc, j0, nc int) {
	kk := g.K * g.K
	taps := min(kk, kc) // distinct taps among the block's rows
	plane := g.H * g.W
	t0 := p0 % kk // tap of the block's first row
	base := p0/kk*plane - plane
	if t0 != 0 {
		base += plane // the first row is not at tap (0, 0), which advances it
	}
	w := sliverWidth[T]()
	var pat tapPatterns
	for s := 0; s < nc; s += w {
		for u := 0; u < w/patW; u++ {
			pat.build(g, u, t0, taps, j0+s+u*patW, min(patW, nc-s-u*patW))
		}
		packTapRows(dst[s*kc:(s+w)*kc], src, &pat, taps, (kk-t0)%kk, base, plane, g.Stride)
	}
}

// build works out the patterns of pattern unit u, the patW columns from
// column j of which nr are valid (none when nr <= 0), for taps t0, t0+1, …
// (taps of them, in row order, wrapping at K*K).
func (p *tapPatterns) build(g ConvGeom, u, t0, taps, j, nr int) {
	if nr <= 0 {
		for t := 0; t < taps; t++ {
			p.kind[t][u] = tapZero
		}
		return
	}
	oy := j / g.OutW
	ox := j - oy*g.OutW
	oneRow := nr == patW && ox+patW <= g.OutW
	span := (patW - 1) * g.Stride // distance from a row's first tap to its last
	var ys, xs [patW]int          // per column: oy*Stride - Pad and ox*Stride - Pad
	for c := range ys {
		ys[c] = -g.H - g.K // the ragged tail: no tap brings it into the image
		if c < nr {
			ys[c], xs[c] = oy*g.Stride-g.Pad, ox*g.Stride-g.Pad
			if ox++; ox == g.OutW {
				oy, ox = oy+1, 0
			}
		}
	}
	for t, ky, kx := 0, t0/g.K, t0%g.K; t < taps; t++ {
		o, kind := &p.offs[t][u], &p.kind[t][u]
		iy, ix := ys[0]+ky, xs[0]+kx
		switch {
		case oneRow && (iy < 0 || iy >= g.H):
			*kind = tapZero
		case oneRow && ix >= 0 && ix+span < g.W:
			*kind, o[0] = tapStride, int32(iy*g.W+ix)
			if g.Stride == 1 {
				*kind = tapCopy
			}
		case oneRow && g.Stride == 1:
			lo, hi := max(0, -ix), min(patW, g.W-ix)
			*kind, o[0], o[1], o[2] = tapSpan, int32(iy*g.W+ix+lo), int32(lo), int32(hi)
			if lo >= hi {
				*kind = tapZero
			}
		default:
			*kind = tapGather
			for c := range o {
				iy, ix := ys[c]+ky, xs[c]+kx
				o[c] = -1
				if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
					o[c] = int32(iy*g.W + ix)
				}
			}
		}
		if kx++; kx == g.K {
			if kx, ky = 0, ky+1; ky == g.K {
				ky = 0
			}
		}
	}
}

// packTapRows writes one sliver's rows into dst (sliverWidth[T]() per row,
// patW columns per pattern). Row i reads through patterns t = i mod taps,
// from the plane of its input channel: base moves one plane on at every row
// whose pattern index is nextChan — where the tap wraps to (0, 0) — so row
// t+m*taps reads at base + (m+1)·plane when t ≥ nextChan, else base +
// m·plane. Each pattern writes its columns of all of its rows in one loop,
// so a row costs its copies and nothing that decides how to copy.
func packTapRows[T float32 | int8](dst, src []T, p *tapPatterns, taps, nextChan, base, plane, stride int) {
	w := sliverWidth[T]()
	step := taps * w // from one row of a pattern to its next
	for t := 0; t < taps; t++ {
		b := base
		if t >= nextChan {
			b += plane
		}
		for u := 0; u < w/patW; u++ {
			o := &p.offs[t][u]
			di, s := t*w+u*patW, b+int(o[0])
			switch p.kind[t][u] {
			case tapCopy:
				for ; di < len(dst); di, s = di+step, s+plane {
					// Through a local so the compiler emits register moves.
					v := *(*[patW]T)(src[s:])
					*(*[patW]T)(dst[di:]) = v
				}
			case tapStride:
				for ; di < len(dst); di, s = di+step, s+plane {
					d, row := (*[patW]T)(dst[di:]), src[s:]
					d[0], d[1], d[2], d[3] = row[0], row[stride], row[2*stride], row[3*stride]
					d[4], d[5], d[6], d[7] = row[4*stride], row[5*stride], row[6*stride], row[7*stride]
				}
			case tapZero:
				for ; di < len(dst); di += step {
					*(*[patW]T)(dst[di:]) = [patW]T{}
				}
			case tapSpan:
				lo, hi := int(o[1]), int(o[2])
				for ; di < len(dst); di, s = di+step, s+plane {
					d := (*[patW]T)(dst[di:])
					*d = [patW]T{}
					copy(d[lo:hi], src[s:])
				}
			default:
				for r := b; di < len(dst); di, r = di+step, r+plane {
					d := (*[patW]T)(dst[di:])
					for c, off := range o {
						var v T
						if off >= 0 {
							v = src[r+int(off)]
						}
						d[c] = v
					}
				}
			}
		}
	}
}

// PackedAI8 is PackedA for int8 operands: the quantized path packs
// per-channel-quantized weights once at plan compile time and reuses them
// for every forward pass.
//
// The int8 panels are stored in pair layout, widened to int16: k indices
// are taken two at a time, and for each pair (p, p+1) the panel holds row
// r's two values adjacent, rows in order — MR x 2 int16, 16 bytes per pair.
// One row's pair is then one dword, which the micro-kernel broadcasts
// straight from memory and multiplies against a B pair sliver (widenPairs)
// with a single multiply-add of int16 pairs into int32 lanes. A block of odd
// depth gives its last index a zero partner. The widened panels take twice
// the bytes of int8 ones; they are built once, when the plan is armed.
type PackedAI8 struct {
	m, k int
	data []int16
}

func (pa *PackedAI8) blockOff(bIdx int) int {
	panels := (pa.m + packMR - 1) / packMR
	return bIdx * panels * packMR * packKC
}

// panels returns count consecutive pair-layout panels, from the one of
// rows [i0, i0+MR), within KC block bIdx, whose depth is kc: each is
// pairDepth(kc)/2 pairs of MR x 2 values.
func (pa *PackedAI8) panels(bIdx, i0, kc, count int) []int16 {
	n := packMR * pairDepth(kc)
	off := pa.blockOff(bIdx) + (i0/packMR)*n
	return pa.data[off : off+count*n]
}

// pairDepth is kc rounded up to whole (p, p+1) pairs. Every block but the
// last has depth KC, which is even, so only the last can grow.
func pairDepth(kc int) int { return kc + kc&1 }

// PackAI8 packs int8 matrix a (row stride lda >= k) into MR-row panels in
// the pair layout, KC-blocked as PackA blocks.
func PackAI8(a []int8, m, k, lda int) *PackedAI8 {
	panels := (m + packMR - 1) / packMR
	pa := &PackedAI8{m: m, k: k, data: make([]int16, panels*packMR*pairDepth(k))}
	for bIdx, pc := 0, 0; pc < k; bIdx, pc = bIdx+1, pc+packKC {
		kc := min(packKC, k-pc)
		for i0 := 0; i0 < m; i0 += packMR {
			pan := pa.panels(bIdx, i0, kc, 1)
			for r := 0; r < packMR && i0+r < m; r++ {
				row := a[(i0+r)*lda+pc : (i0+r)*lda+pc+kc]
				for p, v := range row {
					pan[(p/2)*2*packMR+2*r+p%2] = int16(v)
				}
			}
		}
	}
	return pa
}

// Dims returns the packed matrix's (m, k).
func (pa *PackedAI8) Dims() (m, k int) { return pa.m, pa.k }

// UnpackA reverses PackAI8 for round-trip tests.
func (pa *PackedAI8) UnpackA() []int8 {
	out := make([]int8, pa.m*pa.k)
	for bIdx, pc := 0, 0; pc < pa.k; bIdx, pc = bIdx+1, pc+packKC {
		kc := min(packKC, pa.k-pc)
		for i0 := 0; i0 < pa.m; i0 += packMR {
			pan := pa.panels(bIdx, i0, kc, 1)
			for p := 0; p < kc; p++ {
				for r := 0; r < packMR && i0+r < pa.m; r++ {
					out[(i0+r)*pa.k+pc+p] = int8(pan[(p/2)*2*packMR+2*r+p%2])
				}
			}
		}
	}
	return out
}

// widenPairs writes the kc-row int8 B sliver src (kc rows of NR values,
// as packBBlock and packBConv lay it out) into dst in pair layout: for each
// pair of rows (p, p+1), column c's two values adjacent, columns in order —
// NR x 2 int16, 32 bytes per pair, a zero partner after an odd last row.
// Each sliver is widened once per B block and reused by every A panel.
func widenPairs(dst []int16, src []int8, kc int) {
	src, dst = src[:kc*packNRI8], dst[:pairDepth(kc)*packNRI8]
	if haveAVX2 {
		widenPairsAVX2(&dst[0], &src[0], kc)
		return
	}
	for ; len(src) >= 2*packNRI8; src, dst = src[2*packNRI8:], dst[2*packNRI8:] {
		d := (*[2 * packNRI8]int16)(dst)
		r0, r1 := (*[packNRI8]int8)(src), (*[packNRI8]int8)(src[packNRI8:])
		for c := range r0 {
			d[2*c], d[2*c+1] = int16(r0[c]), int16(r1[c])
		}
	}
	if len(src) > 0 {
		d := (*[2 * packNRI8]int16)(dst)
		for c, v := range (*[packNRI8]int8)(src) {
			d[2*c], d[2*c+1] = int16(v), 0
		}
	}
}
