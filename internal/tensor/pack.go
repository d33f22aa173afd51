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

// packBConv packs one cache block of the virtual im2col matrix directly
// from the input image src ([InC, H, W] row-major): row p decomposes into
// (ic, ky, kx), column j into (oy, ox), and padding positions pack as
// exact zeros — the same values buildColumns materializes, in the same
// row order, so direct convolution is bit-identical to im2col + GEMM.
//
// A sliver whose NR columns lie in one output row reads, for each (ic, ky,
// kx), NR taps of one input row at a fixed stride; when none of them is a
// padding tap they are copied straight from that row. Every other sliver
// row — one that wraps to the next output row (most of them on 14- and
// 7-wide planes), the ragged last sliver, one that touches padding — is cut
// into runs of columns sharing an output row. A run's taps lie in one input
// row, so its padding test is made once: the row is either outside the
// image (the run is zeros) or the run is a zero prefix, a strided copy and
// a zero suffix.
func packBConv[T float32 | int8](dst, src []T, g ConvGeom, p0, kc, j0, nc int) {
	var baseArr, dyArr, dxArr [packKC]int32
	for i := 0; i < kc; i++ {
		p := p0 + i
		kx := p % g.K
		t := p / g.K
		ky := t % g.K
		ic := t / g.K
		baseArr[i] = int32(ic * g.H * g.W)
		dyArr[i] = int32(ky - g.Pad) // iy = oy*Stride + dyArr
		dxArr[i] = int32(kx - g.Pad) // ix = ox*Stride + dxArr
	}
	di := 0
	stride := g.Stride
	span := (packNR - 1) * stride // distance from a sliver row's first tap to its last
	for s := 0; s < nc; s += packNR {
		nr := min(packNR, nc-s)
		jBase := j0 + s
		oy0 := jBase / g.OutW
		ox0 := jBase - oy0*g.OutW
		oneRow := nr == packNR && ox0+packNR <= g.OutW
		for i := 0; i < kc; i++ {
			d := (*[packNR]T)(dst[di:])
			di += packNR
			base := int(baseArr[i])
			dy := int(dyArr[i])
			dx := int(dxArr[i])
			if iy, ix := oy0*stride+dy, ox0*stride+dx; oneRow && iy >= 0 && iy < g.H && ix >= 0 && ix+span < g.W {
				row := src[base+iy*g.W+ix : base+iy*g.W+ix+span+1]
				if stride == 1 {
					v := *(*[packNR]T)(row)
					*d = v
				} else {
					for c := range d {
						d[c] = row[c*stride]
					}
				}
				continue
			}
			*d = [packNR]T{}
			for c, oy, ox := 0, oy0, ox0; c < nr; oy, ox = oy+1, 0 {
				run := min(nr-c, g.OutW-ox)
				if iy := oy*stride + dy; iy >= 0 && iy < g.H {
					// Taps ix0 + t*stride for t in [lo, hi) fall inside the row.
					ix0 := ox*stride + dx
					lo, hi := 0, 0
					if ix0 < 0 {
						lo = (-ix0 + stride - 1) / stride
					}
					if last := g.W - 1 - ix0; last >= 0 {
						hi = min(run, last/stride+1)
					}
					row := src[base+iy*g.W:]
					for t := lo; t < hi; t++ {
						d[c+t] = row[ix0+t*stride]
					}
				}
				c += run
			}
		}
	}
}

// PackedAI8 is PackedA for int8 operands: the quantized path packs
// per-channel-quantized weights once at plan compile time and reuses them
// for every forward pass.
type PackedAI8 struct {
	m, k int
	data []int8
}

func (pa *PackedAI8) blockOff(bIdx int) int {
	panels := (pa.m + packMR - 1) / packMR
	return bIdx * panels * packMR * packKC
}

func (pa *PackedAI8) panel(bIdx, i0, kc int) []int8 {
	off := pa.blockOff(bIdx) + (i0/packMR)*packMR*kc
	return pa.data[off : off+packMR*kc]
}

// PackAI8 packs int8 matrix a (row stride lda >= k) into MR-interleaved
// panels, mirroring PackA.
func PackAI8(a []int8, m, k, lda int) *PackedAI8 {
	pa := &PackedAI8{m: m, k: k, data: make([]int8, PackedALen(m, k))}
	fillPanels(pa.data, a, m, k, lda)
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
