package tensor

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// fillRand fills s with deterministic pseudo-random values in [-1, 1).
func fillRand(s []float32, seed uint64) {
	rng := seed | 1
	for i := range s {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		v := rng * 2685821657736338717
		s[i] = float32(int32(v>>40)-1<<23) / (1 << 23)
	}
}

func fillRandI8(s []int8, seed uint64) {
	rng := seed | 1
	for i := range s {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		s[i] = int8(rng % 255)
	}
}

// TestPackARoundTrip packs and unpacks matrices across ragged and
// degenerate geometries, including views with row stride lda > k.
func TestPackARoundTrip(t *testing.T) {
	cases := []struct{ m, k, lda int }{
		{1, 1, 1}, {1, 7, 7}, {7, 1, 1}, {4, 8, 8}, {5, 8, 8},
		{3, 300, 300}, {9, 513, 513}, {64, 256, 256}, {17, 259, 300},
		{4, 300, 512}, {11, 1, 9},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("m%d_k%d_lda%d", c.m, c.k, c.lda), func(t *testing.T) {
			a := make([]float32, c.m*c.lda)
			fillRand(a, uint64(c.m*1000+c.k))
			pa := PackA(a, c.m, c.k, c.lda)
			got := pa.UnpackA()
			for i := 0; i < c.m; i++ {
				for j := 0; j < c.k; j++ {
					if got[i*c.k+j] != a[i*c.lda+j] {
						t.Fatalf("unpack[%d][%d] = %v, want %v", i, j, got[i*c.k+j], a[i*c.lda+j])
					}
				}
			}
			if m, k := pa.Dims(); m != c.m || k != c.k {
				t.Fatalf("Dims() = (%d, %d), want (%d, %d)", m, k, c.m, c.k)
			}
		})
	}
}

// TestPackAI8RoundTrip mirrors the float32 round trip for the int8 packer.
func TestPackAI8RoundTrip(t *testing.T) {
	cases := []struct{ m, k, lda int }{
		{1, 1, 1}, {5, 8, 8}, {9, 513, 513}, {17, 259, 300}, {4, 256, 256},
	}
	for _, c := range cases {
		a := make([]int8, c.m*c.lda)
		fillRandI8(a, uint64(c.m*77+c.k))
		pa := PackAI8(a, c.m, c.k, c.lda)
		got := pa.UnpackA()
		for i := 0; i < c.m; i++ {
			for j := 0; j < c.k; j++ {
				if got[i*c.k+j] != a[i*c.lda+j] {
					t.Fatalf("m=%d k=%d lda=%d: unpack[%d][%d] = %d, want %d",
						c.m, c.k, c.lda, i, j, got[i*c.k+j], a[i*c.lda+j])
				}
			}
		}
	}
}

// TestGemmEdgeGeometries pins the packed kernel against the naive oracle
// on ragged tails and degenerate shapes, bit-identically. Sizes straddle
// the packed-path threshold so both kernels are exercised.
func TestGemmEdgeGeometries(t *testing.T) {
	cases := []struct{ m, k, n int }{
		{1, 64, 512},   // 1xN degenerate
		{512, 64, 1},   // Mx1 degenerate (gemv path)
		{4, 8, 8},      // exactly one register tile
		{5, 9, 9},      // all-ragged tiny
		{31, 257, 63},  // ragged M/K/N tails around block sizes
		{33, 513, 129}, // spans multiple KC blocks with tails
		{128, 256, 8},  // minimum packed width
		{4, 1024, 96},  // single panel row, many KC blocks
		{97, 3, 200},   // k smaller than any block
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%dx%d", c.m, c.k, c.n), func(t *testing.T) {
			a := make([]float32, c.m*c.k)
			b := make([]float32, c.k*c.n)
			bias := make([]float32, c.m)
			fillRand(a, uint64(c.m))
			fillRand(b, uint64(c.k)+7)
			fillRand(bias, uint64(c.n)+13)
			want := make([]float32, c.m*c.n)
			naiveGemm(want, a, b, bias, c.m, c.k, c.n)
			got := make([]float32, c.m*c.n)
			Gemm(got, a, b, bias, c.m, c.k, c.n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Gemm[%d] = %v, want %v (bit-exact)", i, got[i], want[i])
				}
			}
			// The explicit packed driver must agree bit-identically too,
			// including below the dispatch threshold.
			pa := PackA(a, c.m, c.k, c.k)
			got2 := make([]float32, c.m*c.n)
			gemmPackedDrive(got2, pa, bSrc{mat: b, ldb: c.n}, bias, c.n, false)
			for i := range want {
				if got2[i] != want[i] {
					t.Fatalf("gemmPackedDrive[%d] = %v, want %v (bit-exact)", i, got2[i], want[i])
				}
			}
		})
	}
}

// TestGemmPackedStridedView runs the packed kernel over a B sub-view with
// ldb > n and an A view with lda > k, against the oracle on compacted
// copies.
func TestGemmPackedStridedView(t *testing.T) {
	m, k, n, lda, ldb := 13, 100, 50, 160, 77
	aw := make([]float32, m*lda)
	bw := make([]float32, k*ldb)
	fillRand(aw, 3)
	fillRand(bw, 5)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := 0; i < m; i++ {
		copy(a[i*k:(i+1)*k], aw[i*lda:i*lda+k])
	}
	for p := 0; p < k; p++ {
		copy(b[p*n:(p+1)*n], bw[p*ldb:p*ldb+n])
	}
	want := make([]float32, m*n)
	naiveGemm(want, a, b, nil, m, k, n)
	pa := PackA(aw, m, k, lda)
	got := make([]float32, m*n)
	gemmPackedDrive(got, pa, bSrc{mat: bw, ldb: ldb}, nil, n, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strided gemmPackedDrive[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// convRef materializes the virtual im2col matrix of a ConvGeom — the
// golden reference the direct-convolution packer must reproduce.
func convRef[T float32 | int8](src []T, g ConvGeom) []T {
	rows, cols := g.Rows(), g.Cols()
	col := make([]T, rows*cols)
	for p := 0; p < rows; p++ {
		kx := p % g.K
		tmp := p / g.K
		ky := tmp % g.K
		ic := tmp / g.K
		for oy := 0; oy < g.OutH; oy++ {
			for ox := 0; ox < g.OutW; ox++ {
				iy := oy*g.Stride + ky - g.Pad
				ix := ox*g.Stride + kx - g.Pad
				if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
					col[p*cols+oy*g.OutW+ox] = src[(ic*g.H+iy)*g.W+ix]
				}
			}
		}
	}
	return col
}

// gatherBConv is the per-element packer packBConv replaced, kept as the
// oracle for its copy fast path: every tap of every sliver is bounds-tested
// on its own.
func gatherBConv[T float32 | int8](dst, src []T, g ConvGeom, p0, kc, j0, nc int) {
	di := 0
	for s := 0; s < nc; s += packNR {
		nr := min(packNR, nc-s)
		for i := 0; i < kc; i++ {
			p := p0 + i
			kx := p % g.K
			t := p / g.K
			ky := t % g.K
			ic := t / g.K
			for c := 0; c < packNR; c++ {
				var v T
				if c < nr {
					j := j0 + s + c
					iy := j/g.OutW*g.Stride + ky - g.Pad
					ix := j%g.OutW*g.Stride + kx - g.Pad
					if iy >= 0 && iy < g.H && ix >= 0 && ix < g.W {
						v = src[(ic*g.H+iy)*g.W+ix]
					}
				}
				dst[di] = v
				di++
			}
		}
	}
}

// catalogConvGeoms lists the distinct convolution geometries of the model
// catalog and the tinynet fixture (this package cannot import
// internal/models; TestCatalogConvKernelEquivalence there runs the real
// layers through GemmConv).
var catalogConvGeoms = []ConvGeom{
	{InC: 3, H: 224, W: 224, K: 7, Stride: 2, Pad: 3}, // googlenet conv1
	{InC: 64, H: 56, W: 56, K: 1, Stride: 1, Pad: 0},
	{InC: 64, H: 56, W: 56, K: 3, Stride: 1, Pad: 1},
	{InC: 192, H: 28, W: 28, K: 1, Stride: 1, Pad: 0}, // inception 3a-3b
	{InC: 96, H: 28, W: 28, K: 3, Stride: 1, Pad: 1},
	{InC: 16, H: 28, W: 28, K: 5, Stride: 1, Pad: 2},
	{InC: 256, H: 28, W: 28, K: 1, Stride: 1, Pad: 0},
	{InC: 128, H: 28, W: 28, K: 3, Stride: 1, Pad: 1},
	{InC: 32, H: 28, W: 28, K: 5, Stride: 1, Pad: 2},
	{InC: 480, H: 14, W: 14, K: 1, Stride: 1, Pad: 0}, // inception 4a-4e
	{InC: 96, H: 14, W: 14, K: 3, Stride: 1, Pad: 1},
	{InC: 16, H: 14, W: 14, K: 5, Stride: 1, Pad: 2},
	{InC: 512, H: 14, W: 14, K: 1, Stride: 1, Pad: 0},
	{InC: 112, H: 14, W: 14, K: 3, Stride: 1, Pad: 1},
	{InC: 24, H: 14, W: 14, K: 5, Stride: 1, Pad: 2},
	{InC: 128, H: 14, W: 14, K: 3, Stride: 1, Pad: 1},
	{InC: 144, H: 14, W: 14, K: 3, Stride: 1, Pad: 1},
	{InC: 32, H: 14, W: 14, K: 5, Stride: 1, Pad: 2},
	{InC: 528, H: 14, W: 14, K: 1, Stride: 1, Pad: 0},
	{InC: 160, H: 14, W: 14, K: 3, Stride: 1, Pad: 1},
	{InC: 832, H: 7, W: 7, K: 1, Stride: 1, Pad: 0}, // inception 5a-5b
	{InC: 160, H: 7, W: 7, K: 3, Stride: 1, Pad: 1},
	{InC: 32, H: 7, W: 7, K: 5, Stride: 1, Pad: 2},
	{InC: 192, H: 7, W: 7, K: 3, Stride: 1, Pad: 1},
	{InC: 48, H: 7, W: 7, K: 5, Stride: 1, Pad: 2},
	{InC: 3, H: 227, W: 227, K: 7, Stride: 4, Pad: 0}, // agenet, gendernet
	{InC: 96, H: 28, W: 28, K: 5, Stride: 1, Pad: 2},
	{InC: 256, H: 14, W: 14, K: 3, Stride: 1, Pad: 1},
	{InC: 3, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}, // tinynet
	{InC: 8, H: 8, W: 8, K: 3, Stride: 1, Pad: 1},
}

// checkPackBConv packs the whole virtual matrix of g block by block, the
// way the driver walks it for the column range [j0, j1), and compares
// every packed byte with the per-element oracle's.
func checkPackBConv[T float32 | int8](t *testing.T, src []T, g ConvGeom, j0, j1 int) {
	t.Helper()
	k := g.Rows()
	got := make([]T, bPanelLen(k, j1-j0))
	want := make([]T, len(got))
	for jc := j0; jc < j1; jc += packNC {
		nc := min(packNC, j1-jc)
		for pc := 0; pc < k; pc += packKC {
			kc := min(packKC, k-pc)
			packBConv(got, src, g, pc, kc, jc, nc)
			gatherBConv(want, src, g, pc, kc, jc, nc)
			for i := 0; i < kc*((nc+packNR-1)&^(packNR-1)); i++ {
				if got[i] != want[i] {
					t.Fatalf("geom %+v block p0=%d kc=%d j0=%d nc=%d: packed[%d] = %v, want %v",
						g, pc, kc, jc, nc, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPackBConvMatchesGather pins packBConv's tap patterns — the dense copy
// and the padded gather — on every catalog convolution geometry, to the
// per-element gather they replaced:
// identical panel bytes for float32 and int8, over the full column range
// and over the two NR-aligned halves a two-worker fan-out packs. For the
// 1x1 geometries it also pins that GemmConv's in-memory routing produces
// the dst the gather path does.
func TestPackBConvMatchesGather(t *testing.T) {
	// Beside the catalog: 1-, 3-, 7- and 14-wide outputs, whose slivers wrap
	// output rows almost everywhere (a 1-wide one NR times per sliver), at
	// strides 1 and 2 with 0 to 2 rings of padding (so runs with a zero
	// prefix, a zero suffix, both, and rows wholly outside the image all
	// occur).
	geoms := append([]ConvGeom(nil), catalogConvGeoms...)
	for _, ow := range []int{1, 3, 7, 14} {
		for _, stride := range []int{1, 2} {
			for pad := 0; pad <= 2; pad++ {
				for _, k := range []int{3, 5} {
					if size := (ow-1)*stride + k - 2*pad; size > 0 {
						geoms = append(geoms, ConvGeom{InC: 3, H: size, W: size, K: k, Stride: stride, Pad: pad})
					}
				}
			}
		}
	}
	for gi, g := range geoms {
		g.OutH = convOutDim(g.H, g.K, g.Stride, g.Pad)
		g.OutW = convOutDim(g.W, g.K, g.Stride, g.Pad)
		n := g.Cols()
		src := make([]float32, g.InC*g.H*g.W)
		src8 := make([]int8, len(src))
		fillRand(src, uint64(gi)+51)
		fillRandI8(src8, uint64(gi)+52)
		half := (n/2 + packNR - 1) &^ (packNR - 1)
		for _, r := range [][2]int{{0, n}, {0, half}, {half, n}} {
			checkPackBConv(t, src, g, r[0], r[1])
			checkPackBConv(t, src8, g, r[0], r[1])
		}
		if !g.pointwise() {
			continue
		}
		const outC = 6
		w := make([]float32, outC*g.Rows())
		w8 := make([]int8, len(w))
		bias := make([]float32, outC)
		fillRand(w, uint64(gi)+53)
		fillRandI8(w8, uint64(gi)+54)
		fillRand(bias, uint64(gi)+55)
		got := make([]float32, outC*n)
		want := make([]float32, outC*n)
		GemmConv(got, w, bias, outC, src, g, false)
		gemmPackedDrive(want, PackA(w, outC, g.Rows(), g.Rows()), bSrc{conv: src, g: g}, bias, n, false)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("geom %+v: routed GemmConv[%d] = %v, gather path %v", g, i, got[i], want[i])
			}
		}
		pa8 := PackAI8(w8, outC, g.Rows(), g.Rows())
		got8 := make([]int32, outC*n)
		want8 := make([]int32, outC*n)
		GemmConvI8(got8, pa8, src8, g)
		gemmI8Drive(want8, pa8, bSrcI8{conv: src8, g: g}, n)
		for i := range want8 {
			if got8[i] != want8[i] {
				t.Fatalf("geom %+v: routed GemmConvI8[%d] = %d, gather path %d", g, i, got8[i], want8[i])
			}
		}
	}
}

func convOutDim(in, k, stride, pad int) int { return (in+2*pad-k)/stride + 1 }

// TestGemmConvMatchesIm2col checks the direct convolution against
// materialized im2col + Gemm, bit-identically, over padded, strided, and
// degenerate geometries.
func TestGemmConvMatchesIm2col(t *testing.T) {
	cases := []ConvGeom{
		{InC: 1, H: 5, W: 5, K: 3, Stride: 1, Pad: 0},
		{InC: 3, H: 17, W: 17, K: 3, Stride: 1, Pad: 1},
		{InC: 3, H: 33, W: 33, K: 7, Stride: 2, Pad: 3},
		{InC: 8, H: 14, W: 14, K: 5, Stride: 1, Pad: 2},
		{InC: 16, H: 9, W: 9, K: 1, Stride: 1, Pad: 0},
		{InC: 4, H: 12, W: 10, K: 3, Stride: 3, Pad: 1},
		{InC: 2, H: 3, W: 3, K: 3, Stride: 1, Pad: 0}, // 1x1 output
		// A 1x1 kernel whose caller crops the output: the virtual matrix is
		// not the input viewed as [InC, H*W], so the in-memory route must
		// not take it.
		{InC: 5, H: 9, W: 11, K: 1, Stride: 1, Pad: 0, OutH: 7, OutW: 8},
	}
	for ci, g := range cases {
		if g.OutH == 0 {
			g.OutH = convOutDim(g.H, g.K, g.Stride, g.Pad)
			g.OutW = convOutDim(g.W, g.K, g.Stride, g.Pad)
		}
		outC := 10
		src := make([]float32, g.InC*g.H*g.W)
		w := make([]float32, outC*g.Rows())
		bias := make([]float32, outC)
		fillRand(src, uint64(ci)+21)
		fillRand(w, uint64(ci)+22)
		fillRand(bias, uint64(ci)+23)
		col := convRef(src, g)
		want := make([]float32, outC*g.Cols())
		Gemm(want, w, col, bias, outC, g.Rows(), g.Cols())
		got := make([]float32, outC*g.Cols())
		GemmConv(got, w, bias, outC, src, g, false)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("geom %+v: GemmConv[%d] = %v, want %v", g, i, got[i], want[i])
			}
		}
	}
}

// naiveGemmI8 is the unpacked int8 oracle: plain triple loop, int32
// accumulation.
func naiveGemmI8(dst []int32, a, b []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			dst[i*n+j] = acc
		}
	}
}

// TestGemmPackedI8MatchesNaive pins the packed int8 kernel against the
// unpacked oracle — exact integer equality, any blocking.
func TestGemmPackedI8MatchesNaive(t *testing.T) {
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {4, 8, 8}, {5, 9, 9}, {31, 257, 63}, {64, 300, 120}, {3, 513, 17},
	}
	for _, c := range cases {
		a := make([]int8, c.m*c.k)
		b := make([]int8, c.k*c.n)
		fillRandI8(a, uint64(c.m)+1)
		fillRandI8(b, uint64(c.n)+2)
		want := make([]int32, c.m*c.n)
		naiveGemmI8(want, a, b, c.m, c.k, c.n)
		pa := PackAI8(a, c.m, c.k, c.k)
		got := make([]int32, c.m*c.n)
		GemmPackedI8(got, pa, b, c.n, c.n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%dx%d: I8[%d] = %d, want %d", c.m, c.k, c.n, i, got[i], want[i])
			}
		}
	}
}

// TestGemmConvI8MatchesNaive checks the int8 direct convolution against
// the materialized-matrix oracle.
func TestGemmConvI8MatchesNaive(t *testing.T) {
	g := ConvGeom{InC: 3, H: 15, W: 15, K: 3, Stride: 2, Pad: 1}
	g.OutH = convOutDim(g.H, g.K, g.Stride, g.Pad)
	g.OutW = convOutDim(g.W, g.K, g.Stride, g.Pad)
	outC := 7
	src := make([]int8, g.InC*g.H*g.W)
	w := make([]int8, outC*g.Rows())
	fillRandI8(src, 31)
	fillRandI8(w, 32)
	rows, cols := g.Rows(), g.Cols()
	col := convRef(src, g)
	want := make([]int32, outC*cols)
	naiveGemmI8(want, w, col, outC, rows, cols)
	pa := PackAI8(w, outC, rows, rows)
	got := make([]int32, outC*cols)
	GemmConvI8(got, pa, src, g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GemmConvI8[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestGemmI8DeterministicAcrossWorkers: the int8 driver is exact integer
// math, so any GOMAXPROCS must give identical bytes.
func TestGemmI8DeterministicAcrossWorkers(t *testing.T) {
	m, k, n := 96, 144, 200
	a := make([]int8, m*k)
	b := make([]int8, k*n)
	fillRandI8(a, 41)
	fillRandI8(b, 42)
	pa := PackAI8(a, m, k, k)
	ref := make([]int32, m*n)
	GemmPackedI8(ref, pa, b, n, n)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(w)
		got := make([]int32, m*n)
		GemmPackedI8(got, pa, b, n, n)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d: [%d] = %d, want %d", w, i, got[i], ref[i])
			}
		}
	}
}

// TestGetBufAlignment verifies the documented guarantee: every pooled
// buffer's base pointer is BufAlign-byte aligned, including after
// recycling through the pool.
func TestGetBufAlignment(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 4097, 1 << 16} {
		for round := 0; round < 3; round++ {
			f := GetBuf(n)
			if p := uintptr(unsafe.Pointer(&f[0])); p%BufAlign != 0 {
				t.Fatalf("GetBuf(%d) round %d: base %#x not %d-byte aligned", n, round, p, BufAlign)
			}
			b := GetBufI8(n)
			if p := uintptr(unsafe.Pointer(&b[0])); p%BufAlign != 0 {
				t.Fatalf("GetBufI8(%d) round %d: base %#x not %d-byte aligned", n, round, p, BufAlign)
			}
			PutBuf(f)
			PutBufI8(b)
		}
	}
}

// TestBufPoolI8RoundTrip mirrors the float32 pool-balance test for the
// int8 class: Get/Put traffic must balance over a packed-kernel workload.
func TestBufPoolI8RoundTrip(t *testing.T) {
	before := ReadPoolStats()
	s := GetBufI8(1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("GetBufI8(1000): len %d cap %d, want 1000/1024", len(s), cap(s))
	}
	PutBufI8(s)
	// Kernel round trips: every internal Get must be matched by a Put.
	m, k, n := 40, 300, 120
	a := make([]int8, m*k)
	b := make([]int8, k*n)
	fillRandI8(a, 5)
	fillRandI8(b, 6)
	pa := PackAI8(a, m, k, k)
	dst := make([]int32, m*n)
	mid := ReadPoolStats()
	for i := 0; i < 10; i++ {
		GemmPackedI8(dst, pa, b, n, n)
	}
	after := ReadPoolStats()
	if out := (after.Outstanding() - mid.Outstanding()); out != 0 {
		t.Fatalf("int8 kernel leaked %d pooled buffers", out)
	}
	if after.Gets <= before.Gets {
		t.Fatal("expected pool traffic from the int8 kernel")
	}
	// Non-pool-allocated slices are dropped, not recycled.
	PutBufI8(make([]int8, 1000))
}

// BenchmarkPackBConv packs every block of a convolution's virtual B matrix
// once per iteration, as one GEMM call does: TinyNet's two convs, GoogLeNet's
// first, and 3x3 and 5x5 taps on the 14- and 7-wide planes whose slivers
// wrap output rows.
func BenchmarkPackBConv(b *testing.B) {
	for _, c := range []struct {
		name string
		g    ConvGeom
	}{
		{"tinynet_conv1", ConvGeom{InC: 3, H: 16, W: 16, K: 3, Stride: 1, Pad: 1}},
		{"tinynet_conv2", ConvGeom{InC: 8, H: 8, W: 8, K: 3, Stride: 1, Pad: 1}},
		{"googlenet_conv1", ConvGeom{InC: 3, H: 224, W: 224, K: 7, Stride: 2, Pad: 3}},
		{"14x14_k3", ConvGeom{InC: 96, H: 14, W: 14, K: 3, Stride: 1, Pad: 1}},
		{"7x7_k5", ConvGeom{InC: 32, H: 7, W: 7, K: 5, Stride: 1, Pad: 2}},
	} {
		g := c.g
		g.OutH = convOutDim(g.H, g.K, g.Stride, g.Pad)
		g.OutW = convOutDim(g.W, g.K, g.Stride, g.Pad)
		src := make([]float32, g.InC*g.H*g.W)
		fillRand(src, 1)
		k, n := g.Rows(), g.Cols()
		dst := make([]float32, packKC*((min(packNC, n)+packNR-1)&^(packNR-1)))
		b.Run(c.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for jc := 0; jc < n; jc += packNC {
					for pc := 0; pc < k; pc += packKC {
						packBConv(dst, src, g, pc, min(packKC, k-pc), jc, min(packNC, n-jc))
					}
				}
			}
		})
	}
}
