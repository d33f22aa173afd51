package models

import (
	"fmt"
	"testing"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

// convSite is one conv layer occurrence in the catalog: the layer itself
// plus the input shape it sees at its position in the network.
type convSite struct {
	model string
	conv  *nn.Conv
	in    []int
}

// collectConvs walks layers (recursing into inception branches, where
// every branch sees the module's input) and appends each conv with the
// input shape it executes on.
func collectConvs(t *testing.T, model string, layers []nn.Layer, in []int, out *[]convSite) []int {
	t.Helper()
	cur := in
	for _, l := range layers {
		if c, ok := l.(*nn.Conv); ok {
			*out = append(*out, convSite{model: model, conv: c, in: cur})
		}
		if inc, ok := l.(*nn.Inception); ok {
			for _, branch := range inc.Branches() {
				collectConvs(t, model, branch, cur, out)
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

// catalogConvs gathers every conv shape in the model catalog (plus the
// tinynet fixture), deduplicated by geometry.
func catalogConvs(t *testing.T) []convSite {
	t.Helper()
	var sites []convSite
	for _, name := range Names() {
		net, err := Build(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		collectConvs(t, name, net.Layers(), net.InputShape(), &sites)
	}
	tiny, err := BuildTinyNet("tinynet", 10)
	if err != nil {
		t.Fatalf("build tinynet: %v", err)
	}
	collectConvs(t, "tinynet", tiny.Layers(), tiny.InputShape(), &sites)

	seen := make(map[string]bool)
	uniq := sites[:0]
	for _, s := range sites {
		inC, outC, k, stride, pad := s.conv.Geometry()
		key := fmt.Sprintf("%d/%d/%d/%d/%d/%v", inC, outC, k, stride, pad, s.in)
		if seen[key] {
			continue
		}
		seen[key] = true
		uniq = append(uniq, s)
	}
	return uniq
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
		inC, _, k, stride, pad := s.conv.Geometry()
		name := fmt.Sprintf("%s/%s_%dx%dx%d_k%ds%dp%d", s.model, s.conv.Name(), inC, s.in[1], s.in[2], k, stride, pad)
		t.Run(name, func(t *testing.T) {
			in, err := tensor.New(s.in...)
			if err != nil {
				t.Fatal(err)
			}
			fillDet(in.Data(), uint64(tensor.Volume(s.in)))

			planOut, err := s.conv.Forward(in)
			if err != nil {
				t.Fatalf("Forward: %v", err)
			}
			im2colOut, err := s.conv.ForwardIm2col(in)
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
