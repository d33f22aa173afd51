package nn

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"websnap/internal/tensor"
)

// This file is the golden equivalence suite for the planned execution
// engine: every layer type is checked against an independent naive
// reference implementation that reproduces the pre-refactor per-layer
// math (float32 accumulation, channels-major kernel order), plus
// concurrency and allocation pins for the plan cache.

// refForward executes one layer with naive reference loops.
func refForward(t *testing.T, l Layer, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	outShape, err := l.OutputShape(in.Shape())
	if err != nil {
		t.Fatalf("reference %q: %v", l.Name(), err)
	}
	out := tensor.MustNew(outShape...)
	switch v := l.(type) {
	case *Input, *Dropout:
		copy(out.Data(), in.Data())
	case *Conv:
		refConv(v, in, out)
	case *Pool:
		refPool(v, in, out)
	case *FC:
		refFC(v, in, out)
	case *ReLU:
		for i, x := range in.Data() {
			if x > 0 {
				out.Data()[i] = x
			}
		}
	case *LRN:
		refLRN(v, in, out)
	case *Softmax:
		refSoftmax(in, out)
	case *Inception:
		refInception(t, v, in, out)
	default:
		t.Fatalf("reference: unhandled layer type %T", l)
	}
	return out
}

// refNetForward chains refForward over the whole network.
func refNetForward(t *testing.T, net *Network, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	cur := in
	for _, l := range net.Layers() {
		cur = refForward(t, l, cur)
	}
	return cur
}

func refConv(c *Conv, in, out *tensor.Tensor) {
	inC, outC, k, stride, pad := c.Geometry()
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	wt := c.weight.Data()
	bias := c.bias.Data()
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := bias[oc]
				for ic := 0; ic < inC; ic++ {
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
							sum += in.Data()[(ic*h+iy)*w+ix] * wt[((oc*inC+ic)*k+ky)*k+kx]
						}
					}
				}
				out.Data()[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
}

func refPool(p *Pool, in, out *tensor.Tensor) {
	k, stride, pad := p.Geometry()
	ch, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	for c := 0; c < ch; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float32
				n := 0
				first := true
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
						case p.Kind() == MaxPool && (first || v > acc):
							acc = v
						case p.Kind() == AvgPool:
							acc += v
						}
						first = false
						n++
					}
				}
				if p.Kind() == AvgPool && n > 0 {
					acc /= float32(n)
				}
				out.Data()[(c*oh+oy)*ow+ox] = acc
			}
		}
	}
}

func refFC(l *FC, in, out *tensor.Tensor) {
	nIn, nOut := l.Geometry()
	wt := l.weight.Data()
	bias := l.bias.Data()
	for o := 0; o < nOut; o++ {
		sum := bias[o]
		for i := 0; i < nIn; i++ {
			sum += in.Data()[i] * wt[o*nIn+i]
		}
		out.Data()[o] = sum
	}
}

func refLRN(l *LRN, in, out *tensor.Tensor) {
	size, alpha, beta := l.Settings()
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	half := size / 2
	plane := h * w
	for pos := 0; pos < plane; pos++ {
		for ch := 0; ch < c; ch++ {
			var sum float64
			for j := ch - half; j <= ch+half; j++ {
				if j < 0 || j >= c {
					continue
				}
				v := float64(in.Data()[j*plane+pos])
				sum += v * v
			}
			scale := math.Pow(1+alpha/float64(size)*sum, -beta)
			out.Data()[ch*plane+pos] = float32(float64(in.Data()[ch*plane+pos]) * scale)
		}
	}
}

func refSoftmax(in, out *tensor.Tensor) {
	src := in.Data()
	maxV := src[0]
	for _, v := range src[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxV))
		out.Data()[i] = float32(e)
		sum += e
	}
	if sum > 0 {
		inv := float32(1 / sum)
		for i := range out.Data() {
			out.Data()[i] *= inv
		}
	}
}

func refInception(t *testing.T, l *Inception, in, out *tensor.Tensor) {
	t.Helper()
	plane := out.Dim(1) * out.Dim(2)
	chOff := 0
	for _, branch := range l.Branches() {
		cur := in
		for _, lay := range branch {
			cur = refForward(t, lay, cur)
		}
		bc := cur.Dim(0)
		copy(out.Data()[chOff*plane:(chOff+bc)*plane], cur.Data())
		chOff += bc
	}
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var worst float64
	for i := range a.Data() {
		if d := math.Abs(float64(a.Data()[i]) - float64(b.Data()[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// engineCases builds one small network per layer type (plus both conv
// kernel paths) so every ForwardCtx implementation is exercised through a
// compiled plan.
func engineCases(t *testing.T) map[string]*Network {
	t.Helper()
	mk := func(name string, c, h, w int, mid ...Layer) *Network {
		in, err := NewInput("data", c, h, w)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(name, append([]Layer{in}, mid...)...)
		if err != nil {
			t.Fatal(err)
		}
		net.InitWeights(uint64(len(name)) + 17)
		return net
	}
	convSmall, err := NewConv("c", 3, 5, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Large enough for the GEMM to fan out across workers:
	// 2·9·16·32·32·32 ≈ 9.4M FLOPs.
	convBig, err := NewConv("c", 16, 32, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxP, err := NewPool("p", MaxPool, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	avgP, err := NewPool("p", AvgPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC("f", 3*6*6, 7)
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := NewLRN("n", 5, 0.0001, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	fcSm, err := NewFC("f", 4*6*6, 9)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Network{
		"conv-direct":  mk("conv-direct", 3, 9, 9, convSmall),
		"conv-im2col":  mk("conv-im2col", 16, 32, 32, convBig),
		"pool-max":     mk("pool-max", 3, 7, 7, maxP),
		"pool-avg":     mk("pool-avg", 3, 8, 8, avgP),
		"fc":           mk("fc", 3, 6, 6, fc),
		"relu":         mk("relu", 2, 5, 5, NewReLU("r")),
		"lrn":          mk("lrn", 8, 6, 6, lrn),
		"dropout":      mk("dropout", 2, 4, 4, NewDropout("d", 0.5)),
		"softmax":      mk("softmax", 1, 1, 11, NewSoftmax("s")),
		"mixed-tail":   mk("mixed-tail", 4, 6, 6, NewReLU("r"), NewDropout("d", 0.3), fcSm, NewSoftmax("s")),
		"inplace-head": mk("inplace-head", 2, 5, 5, NewDropout("d", 0.2), NewReLU("r")),
	}
}

func fillDeterministic(in *tensor.Tensor, seed uint64) {
	rng := &archRNG{s: seed*977 + 11}
	for i := range in.Data() {
		in.Data()[i] = float32(rng.intn(2000))/1000 - 1
	}
}

// TestEngineMatchesReferenceLayers checks every layer type through a
// compiled plan against the naive reference within 1e-6, pins that the
// input is never mutated, and that a second run through the cached plan
// is bit-identical to the first.
func TestEngineMatchesReferenceLayers(t *testing.T) {
	for name, net := range engineCases(t) {
		t.Run(name, func(t *testing.T) {
			in := tensor.MustNew(net.InputShape()...)
			fillDeterministic(in, uint64(len(name)))
			pristine := in.Clone()

			want := refNetForward(t, net, in)
			got, err := net.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(want, got); d > 1e-6 {
				t.Fatalf("planned engine diverges from reference by %g", d)
			}
			for i := range in.Data() {
				if in.Data()[i] != pristine.Data()[i] {
					t.Fatalf("input mutated at %d", i)
				}
			}
			again, err := net.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Data() {
				if got.Data()[i] != again.Data()[i] {
					t.Fatalf("cached plan not deterministic at %d", i)
				}
			}
		})
	}
}

// stackedInceptionNet is a GoogLeNet-style stem with two chained
// inception modules, pooling, and a classifier head.
func stackedInceptionNet(t testing.TB) *Network {
	t.Helper()
	mustConv := func(name string, inC, outC, k, s, p int) *Conv {
		c, err := NewConv(name, inC, outC, k, s, p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mustPool := func(name string, kind Pooling, k, s, p int) *Pool {
		pl, err := NewPool(name, kind, k, s, p)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	in, err := NewInput("data", 3, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := NewLRN("norm1", 5, 0.0001, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	inc1, err := NewInception("inc1",
		[]Layer{mustConv("i1_1x1", 8, 4, 1, 1, 0), NewReLU("i1_r1")},
		[]Layer{mustConv("i1_3x3r", 8, 3, 1, 1, 0), NewReLU("i1_r2"), mustConv("i1_3x3", 3, 6, 3, 1, 1)},
		[]Layer{mustPool("i1_pool", MaxPool, 3, 1, 1), mustConv("i1_proj", 8, 2, 1, 1, 0)},
	)
	if err != nil {
		t.Fatal(err)
	}
	inc2, err := NewInception("inc2",
		[]Layer{mustConv("i2_1x1", 12, 5, 1, 1, 0)},
		[]Layer{mustConv("i2_5x5r", 12, 2, 1, 1, 0), mustConv("i2_5x5", 2, 4, 5, 1, 2), NewReLU("i2_r")},
		[]Layer{mustPool("i2_pool", AvgPool, 3, 1, 1), mustConv("i2_proj", 12, 3, 1, 1, 0)},
	)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC("fc", 12*4*4, 6)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("stacked-inception",
		in,
		mustConv("conv1", 3, 8, 3, 1, 1),
		NewReLU("relu1"),
		lrn,
		mustPool("pool1", MaxPool, 2, 2, 0), // 8x8x8
		inc1,                                // 12x8x8
		inc2,                                // 12x8x8
		NewDropout("drop", 0.4),
		mustPool("pool2", MaxPool, 2, 2, 0), // 12x4x4
		fc,
		NewSoftmax("prob"),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(42)
	return net
}

// TestEngineMatchesReferenceInceptionStack is the whole-network golden
// check for a GoogLeNet-style inception stack, including split points
// (the partial-inference path also rides on plans).
func TestEngineMatchesReferenceInceptionStack(t *testing.T) {
	net := stackedInceptionNet(t)
	in := tensor.MustNew(net.InputShape()...)
	fillDeterministic(in, 404)

	want := refNetForward(t, net, in)
	got, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(want, got); d > 1e-6 {
		t.Fatalf("planned engine diverges from reference by %g", d)
	}

	for k := 0; k < net.NumLayers()-1; k++ {
		front, rear, err := net.Split(k)
		if err != nil {
			t.Fatal(err)
		}
		feat, err := front.Forward(in)
		if err != nil {
			t.Fatalf("split %d front: %v", k, err)
		}
		if rs := rear.InputShape(); tensor.Volume(rs) == feat.Len() && len(rs) != feat.Rank() {
			feat, err = feat.Reshape(rs...)
			if err != nil {
				t.Fatal(err)
			}
		}
		end, err := rear.Forward(feat)
		if err != nil {
			t.Fatalf("split %d rear: %v", k, err)
		}
		if d := maxAbsDiff(want, end); d > 1e-6 {
			t.Fatalf("split %d diverges from reference by %g", k, d)
		}
	}
}

// TestCachedPlanConcurrentForwardBatch hammers one cached plan from many
// goroutines through ForwardBatch and Forward simultaneously; run under
// -race this pins the concurrency contract for plan reuse (the
// scheduler's batch path shares one plan per model).
func TestCachedPlanConcurrentForwardBatch(t *testing.T) {
	net := stackedInceptionNet(t)
	in := tensor.MustNew(net.InputShape()...)
	fillDeterministic(in, 777)
	want, err := net.Forward(in) // warm the plan cache
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if g%2 == 0 {
					outs, err := net.ForwardBatch([]*tensor.Tensor{in, in, in})
					if err != nil {
						errs <- err
						return
					}
					for _, out := range outs {
						for i := range want.Data() {
							if out.Data()[i] != want.Data()[i] {
								t.Errorf("goroutine %d: batch output differs at %d", g, i)
								return
							}
						}
					}
				} else {
					out, err := net.Forward(in)
					if err != nil {
						errs <- err
						return
					}
					for i := range want.Data() {
						if out.Data()[i] != want.Data()[i] {
							t.Errorf("goroutine %d: output differs at %d", g, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDropoutForwardNoAlloc pins that inference dropout costs nothing: a
// plan elides it, and its step, in place or not, copies without allocating.
func TestDropoutForwardNoAlloc(t *testing.T) {
	d := NewDropout("drop", 0.5)
	if tr, err := d.Traits([]int{4, 8, 8}); err != nil || !tr.Identity || !tr.InPlace {
		t.Fatalf("dropout traits = %+v, %v; want an in-place identity", tr, err)
	}
	in := tensor.MustNew(4, 8, 8)
	fillDeterministic(in, 5)
	out := tensor.MustNew(4, 8, 8)
	ctx := &ExecContext{}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.ForwardCtx(ctx, in, in); err != nil {
			t.Fatal(err)
		}
		if err := d.ForwardCtx(ctx, in, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("dropout step allocates %v times per call, want 0", allocs)
	}
	for i, v := range in.Data() {
		if out.Data()[i] != v {
			t.Fatal("dropout must be the identity at inference")
		}
	}
}

// TestPlannedForwardAllocsBelowLegacy verifies the arena actually pays:
// a steady-state planned forward allocates far less than chaining layers
// outside a plan, each output allocated fresh (the pre-refactor execution
// shape).
func TestPlannedForwardAllocsBelowLegacy(t *testing.T) {
	net := stackedInceptionNet(t)
	in := tensor.MustNew(net.InputShape()...)
	fillDeterministic(in, 99)
	legacyForward := func() {
		cur := in
		for _, l := range net.Layers() {
			out, err := forwardLayer(l, cur)
			if err != nil {
				t.Fatal(err)
			}
			cur = out
		}
	}
	// Warm the plan cache and pools before measuring.
	if _, err := net.Forward(in); err != nil {
		t.Fatal(err)
	}
	planned := testing.AllocsPerRun(20, func() {
		if _, err := net.Forward(in); err != nil {
			t.Fatal(err)
		}
	})
	legacy := testing.AllocsPerRun(20, legacyForward)
	t.Logf("allocs/inference: planned=%.1f legacy=%.1f", planned, legacy)
	if planned > legacy/2 {
		t.Fatalf("planned forward allocates %.1f times per inference, legacy %.1f — want < half", planned, legacy)
	}
}

// TestPlanIntrospection sanity-checks compiled plan metadata: identity
// layers elided, conv kernel choice recorded, and the ReLU after a
// convolution reported as fused into it — in a float32 plan that holds
// both, not in a range plan cut between them, and not in an int8 plan,
// where the activation stays a live in-place step.
func TestPlanIntrospection(t *testing.T) {
	net := stackedInceptionNet(t)
	plan, err := net.Plan(net.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSteps() != net.NumLayers() {
		t.Fatalf("NumSteps = %d, want %d", plan.NumSteps(), net.NumLayers())
	}
	byName := map[string]PlanStep{}
	for _, st := range plan.Steps() {
		byName[st.Name] = st
		if st.Fused != (st.Name == "relu1") {
			t.Errorf("step %+v: Fused = %v", st, st.Fused)
		}
	}
	if !byName["data"].Elided || !byName["drop"].Elided {
		t.Error("input and dropout steps should be elided")
	}
	if byName["conv1"].Elided || byName["conv1"].Algo != "direct-packed+relu" || byName["conv1"].ScratchFloats != 0 {
		t.Errorf("conv1 step = %+v, want live scratch-free direct-packed+relu conv", byName["conv1"])
	}
	if st := byName["relu1"]; !st.Elided || !st.Fused || st.InPlace {
		t.Errorf("relu1 step = %+v, want elided into conv1", st)
	}
	if byName["prob"].Name != "prob" {
		t.Error("missing softmax step")
	}

	front, err := net.PlanRange(0, 2, net.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	if st := front.Steps()[1]; st.Name != "conv1" || st.Algo != "direct-packed" {
		t.Errorf("range plan ending at conv1: step = %+v, want an unfused direct-packed conv", st)
	}
	rear, err := net.PlanRange(2, net.NumLayers(), 8, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st := rear.Steps()[0]; st.Name != "relu1" || st.Elided || st.Fused {
		t.Errorf("range plan starting at relu1: step = %+v, want a live ReLU", st)
	}
	q, err := net.PlanPrec(PrecInt8, net.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range q.Steps() {
		switch {
		case st.Fused:
			t.Errorf("int8 plan: step %+v is fused", st)
		case st.Name == "conv1" && st.Algo != "direct-packed":
			t.Errorf("int8 plan: conv1 step = %+v, want Algo direct-packed", st)
		case st.Name == "relu1" && (st.Elided || !st.InPlace):
			t.Errorf("int8 plan: relu1 step = %+v, want live and in place", st)
		}
	}
}

// BenchmarkNetworkForward compares a steady-state planned forward pass
// against chaining the standalone per-layer path (the shape of the
// pre-refactor engine) on the GoogLeNet-style stacked-inception net.
func BenchmarkNetworkForward(b *testing.B) {
	net := stackedInceptionNet(b)
	in := tensor.MustNew(net.InputShape()...)
	fillDeterministic(in, 7)
	b.Run("planned", func(b *testing.B) {
		if _, err := net.Forward(in); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-layer", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur := in
			for _, l := range net.Layers() {
				out, err := forwardLayer(l, cur)
				if err != nil {
					b.Fatal(err)
				}
				cur = out
			}
		}
	})
}

// BenchmarkForwardBatch measures the scheduler's batch path: one cached
// plan, per-sample contexts, layer-major execution.
func BenchmarkForwardBatch(b *testing.B) {
	net := stackedInceptionNet(b)
	in := tensor.MustNew(net.InputShape()...)
	fillDeterministic(in, 8)
	batch := []*tensor.Tensor{in, in, in, in}
	if _, err := net.ForwardBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ForwardBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWeightsRewrittenAfterPlanCompile pins that nothing compiled from the
// old weights survives InitWeights or DecodeWeights: with float32 and int8
// plans compiled (and the convolutions' panels packed) before the rewrite,
// a float32 forward afterwards is bit-identical to a freshly built network
// with the new weights — through the network's plan cache and through a
// plan handle taken before the rewrite, which finds the packed panels gone
// and packs per call — and an int8 forward equals the fresh network's and
// lies within the recompiled plan's ErrBound of the float32 result.
func TestWeightsRewrittenAfterPlanCompile(t *testing.T) {
	for _, how := range []string{"InitWeights", "DecodeWeights"} {
		t.Run(how, func(t *testing.T) {
			net := stackedInceptionNet(t)
			in := tensor.MustNew(net.InputShape()...)
			fillDeterministic(in, 31)
			held, err := net.Plan(net.InputShape()...)
			if err != nil {
				t.Fatal(err)
			}
			for _, prec := range []Precision{PrecFloat32, PrecInt8} {
				if _, err := net.ForwardPrec(in, prec); err != nil {
					t.Fatal(err)
				}
			}
			conv1 := net.Layers()[1].(*Conv)
			if conv1.packed.Load() == nil {
				t.Fatal("conv1 is not packed after a float32 plan compile")
			}

			fresh := stackedInceptionNet(t)
			fresh.InitWeights(12345)
			if how == "InitWeights" {
				net.InitWeights(12345)
			} else {
				var blob bytes.Buffer
				if err := fresh.EncodeWeights(&blob); err != nil {
					t.Fatal(err)
				}
				if err := net.DecodeWeights(&blob); err != nil {
					t.Fatal(err)
				}
			}
			if conv1.packed.Load() != nil {
				t.Error("conv1 still holds panels packed from the old weights")
			}

			want, err := fresh.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			sameBits := func(what string, got *tensor.Tensor) {
				t.Helper()
				for i, v := range got.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
						t.Fatalf("%s: output %d = %v, fresh network %v", what, i, v, want.Data()[i])
					}
				}
			}
			got, err := held.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			sameBits("plan held across the rewrite", got)
			if got, err = net.Forward(in); err != nil {
				t.Fatal(err)
			}
			sameBits("float32 forward", got)

			wantQ, err := fresh.ForwardPrec(in, PrecInt8)
			if err != nil {
				t.Fatal(err)
			}
			gotQ, err := net.ForwardPrec(in, PrecInt8)
			if err != nil {
				t.Fatal(err)
			}
			q, err := net.PlanPrec(PrecInt8, net.InputShape()...)
			if err != nil {
				t.Fatal(err)
			}
			bound := float64(q.Quant().ErrBound)
			for i, v := range gotQ.Data() {
				if v != wantQ.Data()[i] {
					t.Fatalf("int8 output %d = %v, fresh network %v", i, v, wantQ.Data()[i])
				}
				if d := math.Abs(float64(v) - float64(want.Data()[i])); d > bound {
					t.Fatalf("int8 output %d = %v, float32 %v: off by %g, ErrBound %g", i, v, want.Data()[i], d, bound)
				}
			}
		})
	}
}

// TestConvPackedOncePerNetwork pins the lifetime of the prepacked panels:
// the first float32 plan compile packs every convolution, inception branches
// included; a range plan, a batch forward, a standalone layer call and a
// second input shape all run from those same copies; and a network that is
// only ever compiled at int8 packs none.
func TestConvPackedOncePerNetwork(t *testing.T) {
	net := stackedInceptionNet(t)
	in := tensor.MustNew(net.InputShape()...)
	fillDeterministic(in, 3)
	packedOf := func(n *Network) map[*Conv]*tensor.PackedA {
		m := map[*Conv]*tensor.PackedA{}
		eachConv(n.layers, func(c *Conv) { m[c] = c.packed.Load() })
		return m
	}
	for c, pa := range packedOf(net) {
		if pa != nil {
			t.Fatalf("%s is packed before any plan was compiled", c.name)
		}
	}
	if _, err := net.Plan(net.InputShape()...); err != nil {
		t.Fatal(err)
	}
	first := packedOf(net)
	if len(first) != 9 {
		t.Fatalf("walked %d convolutions, want the fixture's 9", len(first))
	}
	for c, pa := range first {
		if pa == nil {
			t.Fatalf("%s is not packed after a float32 plan compile", c.name)
		}
		if m, k := pa.Dims(); m != c.outC || k != c.inC*c.k*c.k {
			t.Fatalf("%s packed as %dx%d", c.name, m, k)
		}
	}
	if _, err := net.ForwardRange(in, 0, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatch([]*tensor.Tensor{in, in, in}); err != nil {
		t.Fatal(err)
	}
	if _, err := forwardLayer(net.Layers()[1], in); err != nil {
		t.Fatal(err)
	}
	if _, err := net.PlanRange(1, 5, 3, 24, 24); err != nil {
		t.Fatal(err)
	}
	for c, pa := range packedOf(net) {
		if pa != first[c] {
			t.Errorf("%s was packed again", c.name)
		}
	}

	q := stackedInceptionNet(t)
	if _, err := q.ForwardPrec(in, PrecInt8); err != nil {
		t.Fatal(err)
	}
	for c, pa := range packedOf(q) {
		if pa != nil {
			t.Errorf("%s holds float32 panels on a network that only ran int8", c.name)
		}
	}
}
