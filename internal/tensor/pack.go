package tensor

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

// Register-tile and cache-block geometry, shared by the float32 and int8
// kernels. KC and NC are sized for this class of machine (tens of KiB of
// L1d, 1-2 MiB of L2): one float32 B block (KC x NC) fits in L2, one B
// sliver (KC x NR) in L1, and one A panel (MR x KC) spans a few KiB.
const (
	packMR = 4
	packNR = 8
	packKC = 256
	packNC = 1024
)

// PanelRows (MR) and PanelCols (NR) expose the register-tile geometry for
// tests.
const (
	PanelRows = packMR
	PanelCols = packNR
)

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
// each; within a sliver, element (p, c) lands at p*NR + c, and columns past
// nc (the ragged tail) are written as zeros. Full slivers move NR elements
// per row in one copy; only the ragged last sliver pads.
func packBBlock[T float32 | int8](dst, b []T, ldb, p0, kc, j0, nc int) {
	di := 0
	for s := 0; s < nc; s += packNR {
		nr := min(packNR, nc-s)
		col := p0*ldb + j0 + s
		for p := 0; p < kc; p++ {
			d := (*[packNR]T)(dst[di:])
			if nr == packNR {
				// Through a local so the compiler emits register moves; a
				// direct array assignment may alias and calls memmove.
				v := *(*[packNR]T)(b[col:])
				*d = v
			} else {
				copy(d[:nr], b[col:])
				clear(d[nr:])
			}
			di += packNR
			col += ldb
		}
	}
}

// How one tap's NR columns of a sliver read an input plane.
const (
	tapCopy   = iota // NR consecutive in-image positions: one NR-wide copy
	tapStride        // NR in-image positions Stride apart in one input row
	tapZero          // an input row outside the image: all padding
	tapSpan          // stride 1 in one input row, padding at either end: zeros and one copy
	tapGather        // any other tap: per-column offsets
)

// tapPatterns holds one sliver's reading pattern per distinct tap of a
// block: its kind, and the plane offsets it reads — the first alone for
// tapCopy and tapStride; for tapSpan the first in-image column's, then the
// span [lo, hi) of columns in the image; one per column (-1 for a padding
// tap) for tapGather.
type tapPatterns struct {
	kind [packKC]uint8
	offs [packKC][packNR]int32
}

// packBConv packs one cache block of the virtual im2col matrix directly
// from the input image src ([InC, H, W] row-major): row p decomposes into
// (ic, ky, kx), column j into (oy, ox), and padding positions pack as
// exact zeros — the same values buildColumns materializes, in the same
// row order, so direct convolution is bit-identical to im2col + GEMM.
//
// A sliver's NR columns fix, for each kernel tap (ky, kx), which positions
// of an input plane its row reads — the same positions for every input
// channel. So each sliver works out its tap patterns once, and every row is
// one channel's plane read through its tap's pattern. A sliver within one
// output row reads, per tap, NR positions of one input row: a single copy
// at stride 1 and a strided read otherwise when they are all inside the
// image, zeros when the row is not, and at stride 1 zeros around one
// shorter copy when the row runs into padding. Any other tap — a padded one
// at stride 2, a sliver that wraps to the next output row (most of them on
// 14- and 7-wide planes), the ragged last sliver — gets a plane offset per
// column and gathers. Rows advance (tap, channel) by counting; nothing per
// row divides.
func packBConv[T float32 | int8](dst, src []T, g ConvGeom, p0, kc, j0, nc int) {
	kk := g.K * g.K
	taps := min(kk, kc) // distinct taps among the block's rows
	plane := g.H * g.W
	t0 := p0 % kk // tap of the block's first row
	base := p0/kk*plane - plane
	if t0 != 0 {
		base += plane // the first row is not at tap (0, 0), which advances it
	}
	var pat tapPatterns
	for s := 0; s < nc; s += packNR {
		pat.build(g, t0, taps, j0+s, min(packNR, nc-s))
		packTapRows(dst[s*kc:(s+packNR)*kc], src, &pat, taps, (kk-t0)%kk, base, plane, g.Stride)
	}
}

// build works out the patterns of the sliver of nr columns from column j
// for taps t0, t0+1, … (taps of them, in row order, wrapping at K*K).
func (p *tapPatterns) build(g ConvGeom, t0, taps, j, nr int) {
	oy := j / g.OutW
	ox := j - oy*g.OutW
	oneRow := nr == packNR && ox+packNR <= g.OutW
	span := (packNR - 1) * g.Stride // distance from a row's first tap to its last
	var ys, xs [packNR]int          // per column: oy*Stride - Pad and ox*Stride - Pad
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
		o := &p.offs[t]
		iy, ix := ys[0]+ky, xs[0]+kx
		switch {
		case oneRow && (iy < 0 || iy >= g.H):
			p.kind[t] = tapZero
		case oneRow && ix >= 0 && ix+span < g.W:
			p.kind[t], o[0] = tapStride, int32(iy*g.W+ix)
			if g.Stride == 1 {
				p.kind[t] = tapCopy
			}
		case oneRow && g.Stride == 1:
			lo, hi := max(0, -ix), min(packNR, g.W-ix)
			p.kind[t], o[0], o[1], o[2] = tapSpan, int32(iy*g.W+ix+lo), int32(lo), int32(hi)
			if lo >= hi {
				p.kind[t] = tapZero
			}
		default:
			p.kind[t] = tapGather
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

// packTapRows writes one sliver's rows into dst (NR per row). Row i reads
// through pattern t = i mod taps, from the plane of its input channel: base
// moves one plane on at every row whose pattern index is nextChan — where
// the tap wraps to (0, 0) — so row t+m*taps reads at base + (m+1)·plane when
// t ≥ nextChan, else base + m·plane. Each pattern writes all of its rows in
// one loop, so a row costs its copy and nothing that decides how to copy.
func packTapRows[T float32 | int8](dst, src []T, p *tapPatterns, taps, nextChan, base, plane, stride int) {
	step := taps * packNR // from one row of a pattern to its next
	for t := 0; t < taps; t++ {
		b := base
		if t >= nextChan {
			b += plane
		}
		o := &p.offs[t]
		di, s := t*packNR, b+int(o[0])
		switch p.kind[t] {
		case tapCopy:
			for ; di < len(dst); di, s = di+step, s+plane {
				// Through a local so the compiler emits register moves.
				v := *(*[packNR]T)(src[s:])
				*(*[packNR]T)(dst[di:]) = v
			}
		case tapStride:
			for ; di < len(dst); di, s = di+step, s+plane {
				d, row := (*[packNR]T)(dst[di:]), src[s:]
				d[0], d[1], d[2], d[3] = row[0], row[stride], row[2*stride], row[3*stride]
				d[4], d[5], d[6], d[7] = row[4*stride], row[5*stride], row[6*stride], row[7*stride]
			}
		case tapZero:
			for ; di < len(dst); di += step {
				*(*[packNR]T)(dst[di:]) = [packNR]T{}
			}
		case tapSpan:
			lo, hi := int(o[1]), int(o[2])
			for ; di < len(dst); di, s = di+step, s+plane {
				d := (*[packNR]T)(dst[di:])
				*d = [packNR]T{}
				copy(d[lo:hi], src[s:])
			}
		default:
			for ; di < len(dst); di, b = di+step, b+plane {
				d := (*[packNR]T)(dst[di:])
				for c, off := range o {
					var v T
					if off >= 0 {
						v = src[b+int(off)]
					}
					d[c] = v
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
	src, dst = src[:kc*packNR], dst[:pairDepth(kc)*packNR]
	if haveAVX2 {
		widenPairsAVX2(&dst[0], &src[0], kc)
		return
	}
	for ; len(src) >= 2*packNR; src, dst = src[2*packNR:], dst[2*packNR:] {
		d := (*[2 * packNR]int16)(dst)
		r0, r1 := (*[packNR]int8)(src), (*[packNR]int8)(src[packNR:])
		for c := range r0 {
			d[2*c], d[2*c+1] = int16(r0[c]), int16(r1[c])
		}
	}
	if len(src) > 0 {
		d := (*[2 * packNR]int16)(dst)
		for c, v := range (*[packNR]int8)(src) {
			d[2*c], d[2*c+1] = int16(v), 0
		}
	}
}
