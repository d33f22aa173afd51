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
	// The gemv path's 8-row blocks: exact, one block plus 1..7 remainder
	// rows, and two blocks plus remainders, at short and long k.
	for _, m := range []int{8, 9, 15, 16, 17, 23} {
		for _, k := range []int{1, 7, 1000} {
			cases = append(cases, struct{ m, k, n int }{m, k, 1})
		}
	}
	for _, tc := range cases {
		a := make([]float32, tc.m*tc.k)
		b := make([]float32, tc.k*tc.n)
		bias := make([]float32, tc.m)
		fillSeq(a, uint64(tc.m*1000+tc.k))
		fillSeq(b, uint64(tc.k*1000+tc.n))
		fillSeq(bias, uint64(tc.n))
		checkGemmBits(t, a, b, bias, tc.m, tc.k, tc.n)
	}

	// IEEE special values through the gemv path: −0, NaN, ±Inf,
	// subnormals and products that overflow, in a and in x, laid out so
	// the 8-row blocks and the remainder rows each meet every kind. NaNs
	// carry distinct payloads (a's, x's, and the default NaN of Inf−Inf
	// or 0·Inf), so an accumulator that took another row's operand shows
	// in the bits. No add or multiply ever has two NaN operands: which of
	// the two x86 returns depends on the operand order the compiler picks
	// for that build (it differs under -race), not on the kernel.
	nanA, nanX := math.Float32frombits(0x7fc0_0a0a), math.Float32frombits(0xffc0_0b0b)
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	x := []float32{0.5, -0.25, 2, negZero, math.Float32frombits(1), 3e38, 1e-39, 0.75, -1.5, 1.25, 0.125}
	k := len(x)
	patterns := []func(row []float32, j int){
		func(row []float32, j int) {},
		func(row []float32, j int) { row[j] = inf },
		func(row []float32, j int) { row[j] = -inf },
		func(row []float32, j int) { row[2], row[5] = -2.5e38, 3e38 }, // −Inf, then +Inf: NaN
		func(row []float32, j int) { // every product −0
			for i := range row {
				row[i] = negZero
				if math.Signbit(float64(x[i])) {
					row[i] = 0
				}
			}
		},
		func(row []float32, j int) {
			for i := range row {
				row[i] = math.Float32frombits(uint32(1 + i*j))
			}
			row[j] = -math.Float32frombits(0x007f_ffff)
		},
		func(row []float32, j int) { row[j] = nanA },
	}
	const m = 19 // two 8-row blocks and three remainder rows
	build := func(patterns []func([]float32, int)) []float32 {
		a := make([]float32, m*k)
		fillSeq(a, 21)
		for o := range m {
			patterns[o%len(patterns)](a[o*k:(o+1)*k], 3*o%k) // row 1: Inf·−0
		}
		return a
	}
	bias := make([]float32, m)
	fillSeq(bias, 23)
	bias[3], bias[11], bias[18] = inf, negZero, negZero
	a := build(patterns)
	checkNoNaNPairs(t, a, x, bias, m)
	checkGemmBits(t, a, x, bias, m, k, 1)
	// x's own NaN, then −Inf, reaches every row, so no row may make a NaN
	// of its own first: the overflow pair and a's NaN are left out, and
	// x's −0 (which makes 0·Inf) becomes 1.
	x[3] = 1
	a = build(patterns[:3])
	for _, v := range []float32{nanX, -inf} {
		x[9] = v
		checkNoNaNPairs(t, a, x, bias, m)
		checkGemmBits(t, a, x, bias, m, k, 1)
	}
}

// checkNoNaNPairs fails the test when accumulating some row of a times x
// (from bias, or +0) would multiply or add two NaNs.
func checkNoNaNPairs(t *testing.T, a, x, bias []float32, m int) {
	t.Helper()
	nan := func(v float32) bool { return v != v }
	for o := range m {
		for _, s := range []float32{0, bias[o]} {
			for i, v := range x {
				p := v * a[o*len(x)+i]
				if nan(v) && nan(a[o*len(x)+i]) || nan(s) && nan(p) {
					t.Fatalf("test data: row %d meets two NaNs at %d", o, i)
				}
				s += p
			}
		}
	}
}

// checkGemmBits requires Gemm to reproduce naiveGemm bit for bit, with
// the bias and without it.
func checkGemmBits(t *testing.T, a, b, bias []float32, m, k, n int) {
	t.Helper()
	for _, withBias := range []bool{true, false} {
		bs := bias
		if !withBias {
			bs = nil
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		naiveGemm(want, a, b, bs, m, k, n)
		Gemm(got, a, b, bs, m, k, n)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("m=%d k=%d n=%d bias=%v: dst[%d] = %g (%#08x), want %g (%#08x) (must be bit-identical)",
					m, k, n, withBias, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// checkRaggedTiles drives every tile shape the packed kernels can meet —
// m in 1..9 rows and n in 1..17 columns cover each mr x nr corner of the
// 4x16 float32 and 4x8 int8 register tiles, n = 31 and 33 one sliver short
// of and past two float32 slivers, n = 49 and 196 the catalog's 7x7 and
// 14x14 planes — with k on both sides of a KC block boundary, and requires the float32
// drivers to be bit-identical to gemmRef and the int8 drivers equal to the
// int32 oracle. The B operand is the im2col matrix of a 3x3 convolution,
// so the same numbers also go through GemmConv — once more with the ReLU
// clamp in the last KC block's epilogue, against gemmRef's output clamped
// afterwards — and GemmConvI8.
func checkRaggedTiles(t *testing.T) {
	t.Helper()
	ns := []int{31, 33, 49, 196}
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

// TestGemmDeterministicAcrossWorkers pins that a GEMM large enough to
// parallelize produces bit-identical output regardless of GOMAXPROCS:
// row partitioning must never change per-element accumulation order. The
// second shape is an FC layer's matrix-vector product, with m not a
// multiple of the 8-row block, so chunks end in remainder rows.
func TestGemmDeterministicAcrossWorkers(t *testing.T) {
	for _, c := range []struct{ m, k, n int }{
		{96, 144, 200}, // 2·m·k·n ≈ 5.5M FLOPs > gemmParallelFLOPs
		{516, 4096, 1}, // ≈ 4.2M FLOPs, also above it
	} {
		m, k, n := c.m, c.k, c.n
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		bias := make([]float32, m)
		fillSeq(a, 1)
		fillSeq(b, 2)
		fillSeq(bias, 3)

		prev := runtime.GOMAXPROCS(1)
		want := make([]float32, m*n)
		Gemm(want, a, b, bias, m, k, n)
		for _, procs := range []int{2, 4, 7} {
			runtime.GOMAXPROCS(procs)
			got := make([]float32, m*n)
			Gemm(got, a, b, bias, m, k, n)
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("%dx%dx%d GOMAXPROCS=%d: dst[%d] = %g, want %g", m, k, n, procs, i, got[i], want[i])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
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

// BenchmarkGemv times the n==1 path every FC layer takes, at the
// catalog's FC shapes. SetBytes is the weight bytes alone, so the MB/s
// column reads against the host's memory bandwidth: fc6's 38.5 MB do not
// fit in any cache.
func BenchmarkGemv(b *testing.B) {
	for _, s := range []struct {
		name    string
		out, in int
	}{
		{"agenet_fc6", 512, 18816},
		{"agenet_fc7", 512, 512},
		{"googlenet_loss3", 1000, 1024},
		{"1024x1024", 1024, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			a := make([]float32, s.out*s.in)
			x := make([]float32, s.in)
			bias := make([]float32, s.out)
			dst := make([]float32, s.out)
			fillSeq(a, 1)
			fillSeq(x, 2)
			fillSeq(bias, 3)
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(a)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(dst, a, x, bias, s.out, s.in, 1)
			}
		})
	}
}

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
