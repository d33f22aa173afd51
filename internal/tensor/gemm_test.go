package tensor

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// naiveGemm is the straightforward triple loop the blocked kernel must
// match: dst[i][j] = bias[i] + Σ_kk a[i][kk]·b[kk][j], accumulated in
// kk-increasing order (the engine's determinism contract).
func naiveGemm(dst, a, b, bias []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		for j := range row {
			if bias != nil {
				row[j] = bias[i]
			} else {
				row[j] = 0
			}
		}
		for kk := 0; kk < k; kk++ {
			c := a[i*k+kk]
			brow := b[kk*n : (kk+1)*n]
			for j, v := range brow {
				row[j] += c * v
			}
		}
	}
}

func fillSeq(s []float32, seed uint64) {
	for i := range s {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		s[i] = float32(seed%2000)/1000 - 1
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	cases := []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 64, 1},    // gemv path
		{7, 33, 1},    // gemv with odd sizes
		{4, 16, 8},    // exact 4-row blocks
		{5, 16, 8},    // 4-row block + 1 remainder
		{6, 7, 9},     // 4 + 2 remainder, odd dims
		{3, 128, 17},  // pure remainder rows
		{64, 128, 96}, // big enough to matter
	}
	for _, tc := range cases {
		a := make([]float32, tc.m*tc.k)
		b := make([]float32, tc.k*tc.n)
		bias := make([]float32, tc.m)
		fillSeq(a, uint64(tc.m*1000+tc.k))
		fillSeq(b, uint64(tc.k*1000+tc.n))
		fillSeq(bias, uint64(tc.n))
		for _, withBias := range []bool{true, false} {
			bs := bias
			if !withBias {
				bs = nil
			}
			want := make([]float32, tc.m*tc.n)
			got := make([]float32, tc.m*tc.n)
			naiveGemm(want, a, b, bs, tc.m, tc.k, tc.n)
			Gemm(got, a, b, bs, tc.m, tc.k, tc.n)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("m=%d k=%d n=%d bias=%v: dst[%d] = %g, want %g (must be bit-identical)",
						tc.m, tc.k, tc.n, withBias, i, got[i], want[i])
				}
			}
		}
	}
}

// checkRaggedTiles drives every tile shape the packed kernels can meet —
// m in 1..9 rows and n in 1..17 columns cover each mr x nr corner of the
// 4x8 register tile, n = 49 and 196 are the catalog's 7x7 and 14x14 planes
// — with k on both sides of a KC block boundary, and requires the float32
// drivers to be bit-identical to gemmRef and the int8 drivers equal to the
// int32 oracle. The B operand is the im2col matrix of a 3x3 convolution,
// so the same numbers also go through GemmConv — once more with the ReLU
// clamp in the last KC block's epilogue, against gemmRef's output clamped
// afterwards — and GemmConvI8.
func checkRaggedTiles(t *testing.T) {
	t.Helper()
	ns := []int{49, 196}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	for _, inC := range []int{1, 28, 29, 57} { // k = 9, 252, 261, 513
		for _, n := range ns {
			g := ConvGeom{InC: inC, H: 3, W: n + 2, K: 3, Stride: 1, OutH: 1, OutW: n}
			switch n {
			case 49:
				g = ConvGeom{InC: inC, H: 7, W: 7, K: 3, Stride: 1, Pad: 1, OutH: 7, OutW: 7}
			case 196:
				g = ConvGeom{InC: inC, H: 14, W: 14, K: 3, Stride: 1, Pad: 1, OutH: 14, OutW: 14}
			}
			k := g.Rows()
			src := make([]float32, inC*g.H*g.W)
			src8 := make([]int8, len(src))
			fillRand(src, uint64(k*1000+n))
			fillRandI8(src8, uint64(k*1000+n)+1)
			b, b8 := convRef(src, g), convRef(src8, g)
			for m := 1; m <= 9; m++ {
				a := make([]float32, m*k)
				a8 := make([]int8, m*k)
				bias := make([]float32, m)
				fillRand(a, uint64(m)+2)
				fillRandI8(a8, uint64(m)+3)
				fillRand(bias, uint64(m)+4)
				want := make([]float32, m*n)
				gemmRef(want, a, b, bias, m, k, n)
				got := make([]float32, m*n)
				same := func(what string) {
					t.Helper()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("m=%d k=%d n=%d: %s[%d] = %v, want %v (bit-exact)", m, k, n, what, i, got[i], want[i])
						}
					}
					clear(got)
				}
				Gemm(got, a, b, bias, m, k, n)
				same("Gemm")
				gemmPackedDrive(got, PackA(a, m, k, k), bSrc{mat: b, ldb: n}, bias, n, false)
				same("gemmPackedDrive")
				GemmConv(got, a, bias, m, src, g, false)
				same("GemmConv")
				for i, v := range want {
					if v < 0 {
						want[i] = 0
					}
				}
				GemmConv(got, a, bias, m, src, g, true)
				same("GemmConv with the clamp")

				want8 := make([]int32, m*n)
				naiveGemmI8(want8, a8, b8, m, k, n)
				pa8 := PackAI8(a8, m, k, k)
				got8 := make([]int32, m*n)
				GemmPackedI8(got8, pa8, b8, n, n)
				for i := range want8 {
					if got8[i] != want8[i] {
						t.Fatalf("m=%d k=%d n=%d: GemmPackedI8[%d] = %d, want %d", m, k, n, i, got8[i], want8[i])
					}
				}
				clear(got8)
				GemmConvI8(got8, pa8, src8, g)
				for i := range want8 {
					if got8[i] != want8[i] {
						t.Fatalf("m=%d k=%d n=%d: GemmConvI8[%d] = %d, want %d", m, k, n, i, got8[i], want8[i])
					}
				}
			}
		}
	}
}

// TestRaggedTiles runs checkRaggedTiles on the kernels this CPU selects
// (kern_amd64_test.go repeats it with the assembly kernels switched off).
func TestRaggedTiles(t *testing.T) { checkRaggedTiles(t) }

// TestGemmDeterministicAcrossWorkers pins that a GEMM large enough to
// parallelize produces bit-identical output regardless of GOMAXPROCS:
// row partitioning must never change per-element accumulation order.
// TestFanOutCoversRangeOnce pins the one fan-out helper: every index of
// [0, n) is visited exactly once, chunk starts are multiples of align, and
// no more than workers chunks are cut.
func TestFanOutCoversRangeOnce(t *testing.T) {
	for _, c := range []struct{ n, workers, align int }{
		{200, 2, 8}, {196, 2, 8}, {49, 2, 8}, {9, 2, 8}, {96, 7, 4}, {5, 4, 4}, {1024, 3, 8},
	} {
		var mu sync.Mutex
		seen := make([]int, c.n)
		chunks := 0
		fanOut(c.n, c.workers, c.align, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			chunks++
			if lo%c.align != 0 || lo >= hi || hi > c.n {
				t.Errorf("n=%d workers=%d align=%d: chunk [%d, %d)", c.n, c.workers, c.align, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		if chunks > c.workers {
			t.Errorf("n=%d workers=%d align=%d: %d chunks", c.n, c.workers, c.align, chunks)
		}
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d workers=%d align=%d: index %d visited %d times", c.n, c.workers, c.align, i, v)
			}
		}
	}
}

// TestGemmConvClampAcrossWorkers runs a convolution large enough to fan
// out (two KC blocks, so the clamp must wait for the second) with the ReLU
// epilogue at several GOMAXPROCS settings, against the unclamped result
// clamped afterwards.
func TestGemmConvClampAcrossWorkers(t *testing.T) {
	g := ConvGeom{InC: 32, H: 30, W: 30, K: 3, Stride: 1, Pad: 1, OutH: 30, OutW: 30}
	const outC = 30 // 2·30·288·900 ≈ 15.6M FLOPs > gemmParallelFLOPs; ragged m and n
	src := make([]float32, g.InC*g.H*g.W)
	w := make([]float32, outC*g.Rows())
	bias := make([]float32, outC)
	fillSeq(src, 11)
	fillSeq(w, 12)
	fillSeq(bias, 13)
	want := make([]float32, outC*g.Cols())
	GemmConv(want, w, bias, outC, src, g, false)
	neg := 0
	for i, v := range want {
		if v < 0 {
			want[i] = 0
			neg++
		}
	}
	if neg == 0 {
		t.Fatal("no negative output; the clamp would prove nothing")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	pa := PackA(w, outC, g.Rows(), g.Rows())
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		got := make([]float32, len(want))
		GemmConvPacked(got, pa, bias, src, g, true)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("GOMAXPROCS=%d: dst[%d] = %g, want %g", procs, i, got[i], want[i])
			}
		}
	}
}

func TestGemmDeterministicAcrossWorkers(t *testing.T) {
	const m, k, n = 96, 144, 200 // 2·m·k·n ≈ 5.5M FLOPs > gemmParallelFLOPs
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	bias := make([]float32, m)
	fillSeq(a, 1)
	fillSeq(b, 2)
	fillSeq(bias, 3)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want := make([]float32, m*n)
	Gemm(want, a, b, bias, m, k, n)

	for _, procs := range []int{2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		got := make([]float32, m*n)
		Gemm(got, a, b, bias, m, k, n)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("GOMAXPROCS=%d: dst[%d] = %g, want %g", procs, i, got[i], want[i])
			}
		}
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf(1000)
	if len(b) != 1000 {
		t.Fatalf("GetBuf(1000) returned len %d", len(b))
	}
	if cap(b) != 1024 {
		t.Fatalf("GetBuf(1000) returned cap %d, want power-of-two 1024", cap(b))
	}
	PutBuf(b)
	b2 := GetBuf(1024)
	if cap(b2) != 1024 {
		t.Fatalf("GetBuf(1024) returned cap %d", cap(b2))
	}
	PutBuf(b2)
	// Zero and odd-capacity slices must not poison the pool.
	PutBuf(nil)
	PutBuf(make([]float32, 3))
	if got := GetBuf(1); len(got) != 1 {
		t.Fatalf("GetBuf(1) returned len %d", len(got))
	}
}

func benchmarkGemm(b *testing.B, m, k, n int) {
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	bias := make([]float32, m)
	dst := make([]float32, m*n)
	fillSeq(a, 1)
	fillSeq(bb, 2)
	fillSeq(bias, 3)
	b.ReportAllocs()
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(dst, a, bb, bias, m, k, n)
	}
}

func BenchmarkGemmSmall(b *testing.B)  { benchmarkGemm(b, 32, 64, 64) }    // below parallel cutoff
func BenchmarkGemmMedium(b *testing.B) { benchmarkGemm(b, 128, 256, 196) } // conv-like column GEMM
func BenchmarkGemmLarge(b *testing.B)  { benchmarkGemm(b, 256, 512, 512) } // parallel path
func BenchmarkGemv(b *testing.B)       { benchmarkGemm(b, 1024, 1024, 1) } // FC path

// BenchmarkGemmI8Large times the packed int8 GEMM at BenchmarkGemmLarge's
// shape, the shape the benchmark program's tensor.gemm_int8_gops uses.
func BenchmarkGemmI8Large(b *testing.B) {
	m, k, n := 256, 512, 512
	a := make([]int8, m*k)
	bb := make([]int8, k*n)
	fillRandI8(a, 1)
	fillRandI8(bb, 2)
	pa := PackAI8(a, m, k, k)
	dst := make([]int32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmPackedI8(dst, pa, bb, n, n)
	}
	b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}
