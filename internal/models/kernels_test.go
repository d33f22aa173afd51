package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

// forwardLayer runs one layer outside any plan, the way a plan step does:
// its output allocated for the shape the layer declares, its scratch from a
// bare context.
func forwardLayer(l nn.Layer, in *tensor.Tensor) (*tensor.Tensor, error) {
	shape, err := l.OutputShape(in.Shape())
	if err != nil {
		return nil, err
	}
	out, err := tensor.New(shape...)
	if err != nil {
		return nil, err
	}
	return out, l.ForwardCtx(&nn.ExecContext{}, in, out)
}

// layerSite is one layer occurrence in the catalog: the layer itself plus
// the input shape it sees at its position in the network.
type layerSite struct {
	model string
	layer nn.Layer
	in    []int
}

// walkLayers calls visit for every layer with the input shape it executes
// on, recursing into inception branches (every branch sees the module's
// input), and returns the chain's output shape.
func walkLayers(t *testing.T, model string, layers []nn.Layer, in []int, visit func(layerSite)) []int {
	t.Helper()
	cur := in
	for _, l := range layers {
		visit(layerSite{model: model, layer: l, in: cur})
		if inc, ok := l.(*nn.Inception); ok {
			for _, branch := range inc.Branches() {
				walkLayers(t, model, branch, cur, visit)
			}
		}
		next, err := l.OutputShape(cur)
		if err != nil {
			t.Fatalf("%s: %s: OutputShape(%v): %v", model, l.Name(), cur, err)
		}
		cur = next
	}
	return cur
}

// catalogSites gathers the sites in the model catalog (plus the tinynet
// fixture) for which key returns a non-empty string, one per distinct key.
func catalogSites(t *testing.T, key func(layerSite) string) []layerSite {
	t.Helper()
	seen := make(map[string]bool)
	var sites []layerSite
	visit := func(s layerSite) {
		if k := key(s); k != "" && !seen[k] {
			seen[k] = true
			sites = append(sites, s)
		}
	}
	for _, name := range Names() {
		net, err := Build(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		walkLayers(t, name, net.Layers(), net.InputShape(), visit)
	}
	tiny, err := BuildTinyNet("tinynet", 10)
	if err != nil {
		t.Fatalf("build tinynet: %v", err)
	}
	walkLayers(t, "tinynet", tiny.Layers(), tiny.InputShape(), visit)
	return sites
}

// catalogConvs gathers every conv shape in the catalog, deduplicated by
// geometry.
func catalogConvs(t *testing.T) []layerSite {
	t.Helper()
	return catalogSites(t, func(s layerSite) string {
		c, ok := s.layer.(*nn.Conv)
		if !ok {
			return ""
		}
		inC, outC, k, stride, pad := c.Geometry()
		return fmt.Sprintf("%d/%d/%d/%d/%d/%v", inC, outC, k, stride, pad, s.in)
	})
}

func fillDet(d []float32, seed uint64) {
	s := seed*2654435761 + 7
	for i := range d {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		d[i] = float32(s%2048)/1024 - 1
	}
}

// TestCatalogConvKernelEquivalence checks, for every distinct conv shape
// the model catalog contains (padded, strided, 1x1, and inception-branch
// convs included), that the production convolution (Forward, the packed
// direct kernel tensor.GemmConv) agrees with the explicit im2col+GEMM
// oracle (ForwardIm2col). The kernels are designed to be bit-identical; the
// test asserts a <= 1e-6 golden bound so a future kernel with a different
// (still correct) accumulation order has headroom.
func TestCatalogConvKernelEquivalence(t *testing.T) {
	sites := catalogConvs(t)
	if len(sites) < 10 {
		t.Fatalf("catalog walk found only %d distinct conv shapes", len(sites))
	}
	for _, s := range sites {
		conv := s.layer.(*nn.Conv)
		inC, _, k, stride, pad := conv.Geometry()
		name := fmt.Sprintf("%s/%s_%dx%dx%d_k%ds%dp%d", s.model, conv.Name(), inC, s.in[1], s.in[2], k, stride, pad)
		t.Run(name, func(t *testing.T) {
			in, err := tensor.New(s.in...)
			if err != nil {
				t.Fatal(err)
			}
			fillDet(in.Data(), uint64(tensor.Volume(s.in)))

			planOut, err := forwardLayer(conv, in)
			if err != nil {
				t.Fatalf("Forward: %v", err)
			}
			im2colOut, err := conv.ForwardIm2col(in)
			if err != nil {
				t.Fatalf("ForwardIm2col: %v", err)
			}

			ref := im2colOut.Data()
			for i, v := range planOut.Data() {
				if d := abs64(float64(v) - float64(ref[i])); d > 1e-6 {
					t.Fatalf("plan vs im2col at %d: %g vs %g (|d|=%g)", i, v, ref[i], d)
				}
			}
		})
	}
}

// TestCatalogConvPrepackedFusedEquivalence runs every distinct conv site of
// the catalog the way a float32 plan runs it — weights prepacked at plan
// compile, the following ReLU folded into the kernel's epilogue — and
// compares it, bit for bit, with the oracle: ForwardIm2col followed by the
// standalone ReLU layer. The catalog has reductions deeper than one KC block
// (k > 256) and ragged column counts (196 and 49), but every outC is a
// multiple of the register tile's four rows, so two sites with ragged row
// counts ride along. Each site is run once more as two range plans split
// between the conv and its ReLU, where nothing may be fused.
func TestCatalogConvPrepackedFusedEquivalence(t *testing.T) {
	sites := catalogConvs(t)
	extra := func(inC, outC, k, stride, pad int, in ...int) {
		input, err := nn.NewInput("data", in...)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := nn.NewConv("conv", inC, outC, k, stride, pad)
		if err != nil {
			t.Fatal(err)
		}
		net, err := nn.NewNetwork("extra", input, conv)
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(uint64(outC))
		sites = append(sites, layerSite{model: "extra", layer: conv, in: in})
	}
	extra(32, 30, 3, 1, 1, 32, 14, 14) // m = 30, k = 288, n = 196
	extra(40, 7, 5, 2, 2, 40, 13, 13)  // m = 7, k = 1000 (four KC blocks), n = 49
	var deep, raggedN int
	for _, s := range sites {
		conv := s.layer.(*nn.Conv)
		inC, outC, k, stride, pad := conv.Geometry()
		name := fmt.Sprintf("%s/%s_%dx%dx%d_k%ds%dp%d_out%d", s.model, conv.Name(), inC, s.in[1], s.in[2], k, stride, pad, outC)
		t.Run(name, func(t *testing.T) {
			input, err := nn.NewInput("data", s.in...)
			if err != nil {
				t.Fatal(err)
			}
			relu := nn.NewReLU("relu")
			net, err := nn.NewNetwork("site", input, conv, relu)
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.MustNew(s.in...)
			fillDet(in.Data(), uint64(tensor.Volume(s.in)))

			plan, err := net.Plan(s.in...)
			if err != nil {
				t.Fatal(err)
			}
			if st := plan.Steps(); st[1].Algo != "direct-packed+relu" || !st[2].Fused {
				t.Fatalf("plan steps %+v, %+v: want the ReLU fused into the conv", st[1], st[2])
			}
			got, err := plan.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			pre, err := conv.ForwardIm2col(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := forwardLayer(relu, pre)
			if err != nil {
				t.Fatal(err)
			}
			front, err := net.ForwardRange(in, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			split, err := net.ForwardRange(front, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			neg := 0
			for i, w := range want.Data() {
				if pre.Data()[i] < 0 {
					neg++
				}
				if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("output %d: prepacked+fused %v (%#08x), im2col then ReLU %v (%#08x)",
						i, g, math.Float32bits(g), w, math.Float32bits(w))
				}
				if g := split.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("output %d: split between conv and ReLU %v, im2col then ReLU %v", i, g, w)
				}
			}
			if neg == 0 {
				t.Fatal("no negative pre-activation; the clamp proved nothing")
			}
		})
		if inC*k*k > 256 {
			deep++
		}
		if oh := convOut(s.in[1], k, stride, pad); oh*oh%8 != 0 {
			raggedN++
		}
	}
	if deep < 5 || raggedN < 5 {
		t.Fatalf("%d sites span several KC blocks and %d have ragged column counts; the walk lost its coverage", deep, raggedN)
	}
}

func convOut(in, k, stride, pad int) int { return (in+2*pad-k)/stride + 1 }

// TestGoogLeNetForwardPacksOnce is the allocation gate for the planned
// forward pass, with GOMAXPROCS pinned to 2 so that every large GEMM forks
// exactly once on any host. A steady-state float32 forward stays at or
// below 344 heap allocations (BenchmarkForward/googlenet before weights
// were prepacked) and draws 111 buffers from the tensor pool — the packed-B
// block of each GEMM worker and nothing else; it was 168, one more per
// convolution, when each call packed its weights. A batch forward draws the
// same per member, and compiling a range plan over nearly every convolution
// of the network afterwards allocates a small fraction of the packed
// panels' size: the copy the full plan made is the one it runs from
// (nn.TestConvPackedOncePerNetwork checks the pointers).
func TestGoogLeNetForwardPacksOnce(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops pooled contexts and buffers at random; the counts are exact only without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net, err := Build(GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	walkLayers(t, GoogLeNet, net.Layers(), net.InputShape(), func(s layerSite) {
		if _, ok := s.layer.(*nn.Conv); ok {
			convs++
		}
	})
	in := tensor.MustNew(net.InputShape()...)
	fillDet(in.Data(), 5)
	forward := func() {
		if _, err := net.Forward(in); err != nil {
			t.Fatal(err)
		}
	}
	memStats := func() (mallocs, bytes uint64) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs, m.TotalAlloc
	}
	forward() // compiles the plan and packs
	forward() // fills the buffer pools
	const runs = 4
	gets := tensor.ReadPoolStats().Gets
	allocs, _ := memStats()
	for i := 0; i < runs; i++ {
		forward()
	}
	after, _ := memStats()
	gets, allocs = (tensor.ReadPoolStats().Gets-gets)/runs, (after-allocs)/runs
	wantGets := int64(168 - convs)
	if gets != wantGets {
		t.Errorf("a forward draws %d pooled buffers, want %d: 168 when each of the %d convolutions packed its weights per call, one fewer each now", gets, wantGets, convs)
	}
	if allocs > 344 {
		t.Errorf("a forward makes %d heap allocations, want at most 344", allocs)
	}

	batch := []*tensor.Tensor{in, in}
	if _, err := net.ForwardBatch(batch); err != nil { // sizes the second context
		t.Fatal(err)
	}
	gets = tensor.ReadPoolStats().Gets
	if _, err := net.ForwardBatch(batch); err != nil {
		t.Fatal(err)
	}
	if gets = tensor.ReadPoolStats().Gets - gets; gets != 2*wantGets {
		t.Errorf("a batch of two draws %d pooled buffers, want %d", gets, 2*wantGets)
	}

	packed := uint64(net.ResidentBytes() - net.ModelBytes())
	_, before := memStats()
	if _, err := net.PlanRange(5, net.NumLayers(), 64, 56, 56); err != nil {
		t.Fatal(err)
	}
	if _, spent := memStats(); spent-before > packed/8 {
		t.Errorf("compiling a range plan after the full plan allocated %d B; the packed panels are %d B and must not be built twice", spent-before, packed)
	}
}

// TestGoogLeNetInt8ForwardAllocs is TestGoogLeNetForwardPacksOnce for the
// int8 plan, GOMAXPROCS pinned to 2 the same way. A steady-state int8
// forward draws 186 buffers from the tensor pool — each quantized step's
// int8 input image and each GEMM worker's packed-B block, as before the int8
// panels took the pair layout: the widened B sliver lives on the worker's
// stack and the widened weights were packed when the plan was armed — and
// stays at or below 300 heap allocations and 64 KiB (273 and about 20 KB
// when the pair layout came in).
func TestGoogLeNetInt8ForwardAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops pooled contexts and buffers at random; the counts are exact only without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net, err := Build(GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.MustNew(net.InputShape()...)
	fillDet(in.Data(), 5)
	forward := func() {
		if _, err := net.ForwardPrec(in, nn.PrecInt8); err != nil {
			t.Fatal(err)
		}
	}
	forward() // compiles, calibrates and arms the plan
	forward() // fills the buffer pools
	const runs = 4
	var before, after runtime.MemStats
	gets := tensor.ReadPoolStats().Gets
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		forward()
	}
	runtime.ReadMemStats(&after)
	gets = (tensor.ReadPoolStats().Gets - gets) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if gets != 186 {
		t.Errorf("an int8 forward draws %d pooled buffers, want 186", gets)
	}
	if allocs > 300 || bytes > 64<<10 {
		t.Errorf("an int8 forward makes %d heap allocations of %d B in all, want at most 300 and 64 KiB", allocs, bytes)
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// refPool is the naive pooling loop (the shape of refPool in
// nn/engine_test.go): per output, every tap bounds-tested in ky-major,
// kx-minor order, max keeping the earlier of two equal or unordered values,
// avg summing from +0 and dividing by the valid tap count.
func refPool(p *nn.Pool, in, out *tensor.Tensor) {
	k, stride, pad := p.Geometry()
	ch, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float32
				n := 0
				for ky := 0; ky < k; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := in.Data()[(c*h+iy)*w+ix]
						switch {
						case p.Kind() == nn.MaxPool && (n == 0 || v > acc):
							acc = v
						case p.Kind() == nn.AvgPool:
							acc += v
						}
						n++
					}
				}
				if p.Kind() == nn.AvgPool && n > 0 {
					acc /= float32(n)
				}
				out.Data()[(c*oh+oy)*ow+ox] = acc
			}
		}
	}
}

// refLRN is the naive per-position LRN loop with math.Pow.
func refLRN(l *nn.LRN, in, out *tensor.Tensor) {
	size, alpha, beta := l.Settings()
	c, plane := in.Dim(0), in.Dim(1)*in.Dim(2)
	half := size / 2
	for pos := 0; pos < plane; pos++ {
		for ch := 0; ch < c; ch++ {
			var sum float64
			for j := max(ch-half, 0); j <= min(ch+half, c-1); j++ {
				v := float64(in.Data()[j*plane+pos])
				sum += v * v
			}
			scale := math.Pow(1+alpha/float64(size)*sum, -beta)
			out.Data()[ch*plane+pos] = float32(float64(in.Data()[ch*plane+pos]) * scale)
		}
	}
}

// TestCatalogPoolEquivalence checks every distinct pooling site in the
// catalog — ceil-mode windows that overhang the edge, the pad-1 inception
// pools, the global average — against refPool, bit for bit, on inputs
// seeded with -0, +0, -Inf and NaN so that the tie, ordering and
// propagation rules of the compare-and-add sequence are part of the pin.
// The catalog's only average pool has a single window, so three geometries
// it lacks ride along: padded and overhanging averages (divide by the
// valid tap count) and a ceil-mode window that lies wholly outside the
// input. CI runs the package once more with -tags noasm, which takes every
// site through the portable loops.
func TestCatalogPoolEquivalence(t *testing.T) {
	sites := catalogSites(t, func(s layerSite) string {
		p, ok := s.layer.(*nn.Pool)
		if !ok {
			return ""
		}
		k, stride, pad := p.Geometry()
		return fmt.Sprintf("%s/%d/%d/%d/%v", p.Kind(), k, stride, pad, s.in)
	})
	if len(sites) < 8 {
		t.Fatalf("catalog walk found only %d distinct pooling sites", len(sites))
	}
	for _, e := range []struct {
		kind           nn.Pooling
		k, stride, pad int
		in             []int
	}{
		{nn.AvgPool, 3, 1, 1, []int{5, 9, 11}},
		{nn.AvgPool, 3, 2, 0, []int{5, 12, 10}},
		{nn.MaxPool, 2, 3, 0, []int{5, 3, 6}},
	} {
		p, err := nn.NewPool("pool", e.kind, e.k, e.stride, e.pad)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, layerSite{model: "extra", layer: p, in: e.in})
	}
	// The 3x3 max kernels take eight outputs at a time, so planes below, at
	// and just past one and two vectors wide ride along, for each way the
	// layer calls them: the edge-repeated plane of the stride-1/pad-1 pool,
	// and row by row at strides 1 and 2 (ceil mode overhangs the odd widths).
	for _, w := range []int{3, 7, 8, 9, 15, 16, 17} {
		for _, g := range [][2]int{{1, 1}, {1, 0}, {2, 0}} {
			p, err := nn.NewPool("pool", nn.MaxPool, 3, g[0], g[1])
			if err != nil {
				t.Fatal(err)
			}
			sites = append(sites, layerSite{model: "extra", layer: p, in: []int{3, w + 1, w}})
		}
	}
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{negZero, 0, float32(math.Inf(-1)), float32(math.NaN()), 0, negZero}
	for _, s := range sites {
		p := s.layer.(*nn.Pool)
		k, stride, pad := p.Geometry()
		name := fmt.Sprintf("%s/%s_%s_%dx%dx%d_k%ds%dp%d", s.model, p.Name(), p.Kind(), s.in[0], s.in[1], s.in[2], k, stride, pad)
		t.Run(name, func(t *testing.T) {
			in := tensor.MustNew(s.in...)
			d := in.Data()
			fillDet(d, uint64(len(d)))
			// Max: every third value is special, so most windows hold
			// several in varying order. Avg: one per k*k+1 values, so a
			// window's sum meets at most a few and many meet none.
			step := 3
			if p.Kind() == nn.AvgPool {
				step = k*k + 1
			}
			for i := 0; i < len(d); i += step {
				d[i] = specials[(i/step)%len(specials)]
			}
			got, err := forwardLayer(p, in)
			if err != nil {
				t.Fatalf("Forward: %v", err)
			}
			want := tensor.MustNew(got.Shape()...)
			refPool(p, in, want)
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
					t.Fatalf("output %d: got %v (%#08x), want %v (%#08x)", i,
						v, math.Float32bits(v), want.Data()[i], math.Float32bits(want.Data()[i]))
				}
			}
		})
	}
}

// TestCatalogLRNEquivalence checks every distinct LRN site in the catalog
// against refLRN: within 1e-6 relative as the catalog configures it (beta
// 0.75, computed with square roots), and bit for bit with beta 0.5, which
// takes the math.Pow branch. Both are also run with out aliasing in, the
// way compiled plans run the layer.
func TestCatalogLRNEquivalence(t *testing.T) {
	sites := catalogSites(t, func(s layerSite) string {
		l, ok := s.layer.(*nn.LRN)
		if !ok {
			return ""
		}
		size, alpha, beta := l.Settings()
		return fmt.Sprintf("%d/%g/%g/%v", size, alpha, beta, s.in)
	})
	if len(sites) < 4 {
		t.Fatalf("catalog walk found only %d distinct LRN sites", len(sites))
	}
	for _, s := range sites {
		size, alpha, beta := s.layer.(*nn.LRN).Settings()
		if beta != 0.75 {
			t.Fatalf("%s/%s: beta %g; the catalog is expected to use 0.75 throughout", s.model, s.layer.Name(), beta)
		}
		for _, b := range []float64{beta, 0.5} {
			name := fmt.Sprintf("%s/%s_%dx%dx%d_n%d_beta%g", s.model, s.layer.Name(), s.in[0], s.in[1], s.in[2], size, b)
			t.Run(name, func(t *testing.T) {
				// A large alpha makes the scale differ visibly from 1.
				l, err := nn.NewLRN("lrn", size, alpha*1e4, b)
				if err != nil {
					t.Fatal(err)
				}
				in := tensor.MustNew(s.in...)
				fillDet(in.Data(), uint64(len(in.Data())))
				want := tensor.MustNew(s.in...)
				refLRN(l, in, want)
				got, err := forwardLayer(l, in)
				if err != nil {
					t.Fatalf("Forward: %v", err)
				}
				aliased := in.Clone()
				if err := l.ForwardCtx(&nn.ExecContext{}, aliased, aliased); err != nil {
					t.Fatalf("ForwardCtx in place: %v", err)
				}
				for i, w := range want.Data() {
					g, a := got.Data()[i], aliased.Data()[i]
					if math.Float32bits(g) != math.Float32bits(a) {
						t.Fatalf("output %d: in place %v, separate output %v", i, a, g)
					}
					if b == 0.75 {
						if d := math.Abs(float64(g) - float64(w)); d > 1e-6*math.Abs(float64(w)) {
							t.Fatalf("output %d: got %v, want %v (relative error %g)", i, g, w, d/math.Abs(float64(w)))
						}
					} else if math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("output %d: got %v, want %v (bit-exact)", i, g, w)
					}
				}
			})
		}
	}
}

// TestGoogLeNetInt8Top1Agreement pins the classification agreement between
// the float32 and calibrated int8 paths on the googlenet-style fixture.
// Everything in the pipeline is deterministic — weight init, the synthetic
// images, calibration, and the int8 kernels (exact int32 arithmetic) — so
// the agreement count is an exact pin, not a statistical bound.
func TestGoogLeNetInt8Top1Agreement(t *testing.T) {
	net, err := Build(GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	const imgs = 4
	agree := 0
	for i := 0; i < imgs; i++ {
		in, err := tensor.New(net.InputShape()...)
		if err != nil {
			t.Fatal(err)
		}
		fillDet(in.Data(), uint64(1000+i))
		fOut, err := net.Forward(in)
		if err != nil {
			t.Fatalf("float32 forward: %v", err)
		}
		qOut, err := net.ForwardPrec(in, nn.PrecInt8)
		if err != nil {
			t.Fatalf("int8 forward: %v", err)
		}
		fi, _ := fOut.MaxIndex()
		qi, _ := qOut.MaxIndex()
		if fi == qi {
			agree++
		}
	}
	if agree != imgs {
		t.Fatalf("top-1 agreement %d/%d, want %d/%d", agree, imgs, imgs, imgs)
	}
}

// TestInt8OutputsPinned pins the int8 plans' output bits: the SHA-256 of
// every output float of TinyNet, AgeNet and GoogLeNet at int8 quality on two
// fixed inputs each. Weight init, calibration and the int8 kernels are all
// deterministic and the int32 accumulation is exact, so the digests hold on
// every host, with the assembly kernels or without (-tags noasm), and they
// hold across any change to the int8 packing or micro-kernel that keeps the
// products and their sums.
func TestInt8OutputsPinned(t *testing.T) {
	tiny, err := BuildTinyNet("tinynet", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		net  func() (*nn.Network, error)
		want string
	}{
		{"tinynet", func() (*nn.Network, error) { return tiny, nil }, "f69da6af38617b55b7fa87f78a0e6191f4ea1c6aa1592268da7641baf32b3e68"},
		{AgeNet, func() (*nn.Network, error) { return Build(AgeNet) }, "88ea8ce283ddcfd13962fa41df443a8b107772727ad6b256f52fa402d3155058"},
		{GoogLeNet, func() (*nn.Network, error) { return Build(GoogLeNet) }, "9c142b2cae4da71697c410e4847c428b2b7a304f2dcc698a7708ed192f9ade21"},
	} {
		net, err := c.net()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var word [4]byte
		for seed := uint64(0); seed < 2; seed++ {
			in := tensor.MustNew(net.InputShape()...)
			fillDet(in.Data(), 2000+seed)
			out, err := net.ForwardPrec(in, nn.PrecInt8)
			if err != nil {
				t.Fatalf("%s: int8 forward: %v", c.name, err)
			}
			for _, v := range out.Data() {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
				h.Write(word[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: int8 output digest %s, want %s", c.name, got, c.want)
		}
	}
}
