package models

import (
	"fmt"
	"math"
	"testing"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

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

			planOut, err := conv.Forward(in)
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
// input.
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
			got, err := p.Forward(in)
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
				got, err := l.Forward(in)
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
