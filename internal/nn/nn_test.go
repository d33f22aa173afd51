package nn

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"websnap/internal/tensor"
)

// forwardLayer runs one layer outside any plan, the way a plan step does:
// its output allocated for the shape the layer declares, its scratch from a
// bare context.
func forwardLayer(l Layer, in *tensor.Tensor) (*tensor.Tensor, error) {
	shape, err := l.OutputShape(in.Shape())
	if err != nil {
		return nil, err
	}
	out, err := tensor.New(shape...)
	if err != nil {
		return nil, err
	}
	return out, l.ForwardCtx(&ExecContext{}, in, out)
}

func TestConvForwardKnownValues(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 kernel of ones, stride 1, no
	// pad: output is the sum of each 2x2 window.
	c, err := NewConv("c", 1, 1, 2, 1, 0)
	if err != nil {
		t.Fatalf("NewConv: %v", err)
	}
	c.weight.Fill(1)
	in, _ := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out, err := forwardLayer(c, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []float32{12, 16, 24, 28}
	for i, w := range want {
		if got := out.Data()[i]; got != w {
			t.Errorf("out[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestConvBiasAndPadding(t *testing.T) {
	c, err := NewConv("c", 1, 1, 3, 1, 1)
	if err != nil {
		t.Fatalf("NewConv: %v", err)
	}
	c.weight.Fill(1)
	c.bias.Fill(10)
	in, _ := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2)
	out, err := forwardLayer(c, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if got := out.Shape(); got[1] != 2 || got[2] != 2 {
		t.Fatalf("padded output shape = %v, want [1 2 2]", got)
	}
	// Every 3x3 window with pad 1 over the all-ones 2x2 input covers
	// exactly the 4 ones.
	for i, v := range out.Data() {
		if v != 14 {
			t.Errorf("out[%d] = %v, want 14 (4 window + 10 bias)", i, v)
		}
	}
}

func TestConvChannelMismatch(t *testing.T) {
	c, _ := NewConv("c", 3, 8, 3, 1, 1)
	in := tensor.MustNew(4, 8, 8)
	if _, err := forwardLayer(c, in); !errors.Is(err, ErrBadShape) {
		t.Errorf("Forward wrong channels err = %v, want ErrBadShape", err)
	}
}

func TestMaxPoolForward(t *testing.T) {
	p, err := NewPool("p", MaxPool, 2, 2, 0)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	in, _ := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 1,
	}, 1, 4, 4)
	out, err := forwardLayer(p, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []float32{4, 8, -1, 1}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
}

func TestMaxPoolAllNegative(t *testing.T) {
	// Regression guard: max over negative values must not return 0.
	p, _ := NewPool("p", MaxPool, 2, 2, 0)
	in, _ := tensor.FromSlice([]float32{-5, -3, -9, -7}, 1, 2, 2)
	out, err := forwardLayer(p, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Data()[0] != -3 {
		t.Errorf("max of negatives = %v, want -3", out.Data()[0])
	}
}

func TestAvgPoolForward(t *testing.T) {
	p, _ := NewPool("p", AvgPool, 2, 2, 0)
	in, _ := tensor.FromSlice([]float32{1, 3, 5, 7}, 1, 2, 2)
	out, err := forwardLayer(p, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Data()[0] != 4 {
		t.Errorf("avg = %v, want 4", out.Data()[0])
	}
}

func TestPoolCeilMode(t *testing.T) {
	// Caffe ceil-mode: 56 -> 28 with k=3, s=2 (the GoogLeNet pool1 case
	// from Fig 1 would be 112 -> 56).
	p, _ := NewPool("p", MaxPool, 3, 2, 0)
	out, err := p.OutputShape([]int{64, 56, 56})
	if err != nil {
		t.Fatalf("OutputShape: %v", err)
	}
	if out[1] != 28 || out[2] != 28 {
		t.Errorf("ceil-mode output = %v, want [64 28 28]", out)
	}
}

func TestFCForward(t *testing.T) {
	fc, err := NewFC("fc", 3, 2)
	if err != nil {
		t.Fatalf("NewFC: %v", err)
	}
	copy(fc.weight.Data(), []float32{1, 2, 3, 4, 5, 6})
	copy(fc.bias.Data(), []float32{0.5, -0.5})
	in, _ := tensor.FromSlice([]float32{1, 1, 1}, 3)
	out, err := forwardLayer(fc, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Data()[0] != 6.5 || out.Data()[1] != 14.5 {
		t.Errorf("fc out = %v, want [6.5 14.5]", out.Data())
	}
}

func TestFCFlattensCHW(t *testing.T) {
	fc, _ := NewFC("fc", 8, 2)
	in := tensor.MustNew(2, 2, 2)
	if _, err := forwardLayer(fc, in); err != nil {
		t.Errorf("FC should accept [2 2 2] input with volume 8: %v", err)
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU("r")
	in, _ := tensor.FromSlice([]float32{-1, 0, 2}, 3)
	out, err := forwardLayer(r, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	want := []float32{0, 0, 2}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Errorf("relu[%d] = %v, want %v", i, out.Data()[i], want[i])
		}
	}
	if in.Data()[0] != -1 {
		t.Error("ReLU must not mutate its input")
	}
}

func TestLRNIdentityWhenAlphaZero(t *testing.T) {
	l, err := NewLRN("l", 5, 0, 0.75)
	if err != nil {
		t.Fatalf("NewLRN: %v", err)
	}
	in := tensor.MustNew(4, 2, 2)
	for i := range in.Data() {
		in.Data()[i] = float32(i)
	}
	out, err := forwardLayer(l, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for i := range in.Data() {
		if out.Data()[i] != in.Data()[i] {
			t.Fatalf("alpha=0 LRN changed element %d: %v -> %v", i, in.Data()[i], out.Data()[i])
		}
	}
}

func TestLRNDampensLargeActivations(t *testing.T) {
	l, _ := NewLRN("l", 3, 1.0, 0.75)
	in := tensor.MustNew(3, 1, 1)
	in.Data()[1] = 100
	out, err := forwardLayer(l, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Data()[1] >= 100 {
		t.Errorf("LRN should dampen: got %v", out.Data()[1])
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	s := NewSoftmax("s")
	in, _ := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	out, err := forwardLayer(s, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	var sum float64
	prev := float32(-1)
	for _, v := range out.Data() {
		sum += float64(v)
		if v <= prev {
			t.Error("softmax must preserve ordering for increasing input")
		}
		prev = v
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	s := NewSoftmax("s")
	in, _ := tensor.FromSlice([]float32{1000, 1001}, 2)
	out, err := forwardLayer(s, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for i, v := range out.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax[%d] = %v, want finite", i, v)
		}
	}
}

func TestDropoutIsIdentityAtInference(t *testing.T) {
	d := NewDropout("d", 0.5)
	in, _ := tensor.FromSlice([]float32{1, 2, 3}, 3)
	out, err := forwardLayer(d, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	for i := range in.Data() {
		if out.Data()[i] != in.Data()[i] {
			t.Fatal("dropout must be identity at inference")
		}
	}
}

func TestInceptionConcatMatchesBranches(t *testing.T) {
	c1, _ := NewConv("b1", 2, 3, 1, 1, 0)
	c2, _ := NewConv("b2", 2, 5, 1, 1, 0)
	for _, c := range []*Conv{c1, c2} {
		for i := range c.weight.Data() {
			c.weight.Data()[i] = float32(i%7) * 0.25
		}
	}
	inc, err := NewInception("inc", []Layer{c1}, []Layer{c2})
	if err != nil {
		t.Fatalf("NewInception: %v", err)
	}
	in := tensor.MustNew(2, 4, 4)
	for i := range in.Data() {
		in.Data()[i] = float32(i) * 0.1
	}
	out, err := forwardLayer(inc, in)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if s := out.Shape(); s[0] != 8 || s[1] != 4 || s[2] != 4 {
		t.Fatalf("inception out shape = %v, want [8 4 4]", s)
	}
	o1, _ := forwardLayer(c1, in)
	o2, _ := forwardLayer(c2, in)
	for i, v := range o1.Data() {
		if out.Data()[i] != v {
			t.Fatalf("branch-1 mismatch at %d", i)
		}
	}
	for i, v := range o2.Data() {
		if out.Data()[o1.Len()+i] != v {
			t.Fatalf("branch-2 mismatch at %d", i)
		}
	}
}

func TestInceptionSpatialMismatch(t *testing.T) {
	c1, _ := NewConv("b1", 2, 3, 1, 1, 0)
	c2, _ := NewConv("b2", 2, 3, 3, 1, 0) // shrinks spatially
	inc, err := NewInception("inc", []Layer{c1}, []Layer{c2})
	if err != nil {
		t.Fatalf("NewInception: %v", err)
	}
	if _, err := inc.OutputShape([]int{2, 4, 4}); !errors.Is(err, ErrBadShape) {
		t.Errorf("spatial mismatch err = %v, want ErrBadShape", err)
	}
}

func tinyNet(t *testing.T) *Network {
	t.Helper()
	in, err := NewInput("data", 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConv("conv1", 2, 4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool("pool1", MaxPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := NewConv("conv2", 4, 6, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := NewPool("pool2", MaxPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC("fc1", 6*2*2, 5)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("tiny",
		in, conv, NewReLU("relu1"), pool, conv2, NewReLU("relu2"), pool2, fc, NewSoftmax("prob"))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(1234)
	return net
}

func randInput(net *Network, seed int64) *tensor.Tensor {
	in := tensor.MustNew(net.InputShape()...)
	s := uint64(seed)*2654435761 + 1
	for i := range in.Data() {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		in.Data()[i] = float32(s%1000)/500 - 1
	}
	return in
}

func TestNetworkForwardShapes(t *testing.T) {
	net := tinyNet(t)
	out, err := net.Forward(randInput(net, 1))
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if out.Len() != 5 {
		t.Errorf("output len = %d, want 5", out.Len())
	}
	shape, err := net.OutputShape()
	if err != nil || len(shape) != 1 || shape[0] != 5 {
		t.Errorf("OutputShape = %v, %v", shape, err)
	}
}

func TestNetworkValidation(t *testing.T) {
	conv, _ := NewConv("c", 2, 4, 3, 1, 1)
	if _, err := NewNetwork("bad", conv); err == nil {
		t.Error("network without input layer should fail")
	}
	in, _ := NewInput("data", 2, 4, 4)
	fc, _ := NewFC("fc", 999, 2)
	if _, err := NewNetwork("bad2", in, fc); err == nil {
		t.Error("shape-incompatible network should fail")
	}
	in2, _ := NewInput("data", 2, 4, 4)
	r1 := NewReLU("same")
	r2 := NewReLU("same")
	if _, err := NewNetwork("bad3", in2, r1, r2); err == nil {
		t.Error("duplicate layer names should fail")
	}
}

func TestDescribeConsistency(t *testing.T) {
	net := tinyNet(t)
	infos, err := net.Describe()
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if len(infos) != net.NumLayers() {
		t.Fatalf("Describe len = %d, want %d", len(infos), net.NumLayers())
	}
	for i := 1; i < len(infos); i++ {
		prev := infos[i-1].OutputShape
		cur := infos[i].InputShape
		if tensor.Volume(prev) != tensor.Volume(cur) {
			t.Errorf("layer %d input volume != layer %d output volume", i, i-1)
		}
	}
	for _, li := range infos {
		if li.OutputBytes != 4*int64(tensor.Volume(li.OutputShape)) {
			t.Errorf("layer %s OutputBytes inconsistent", li.Name)
		}
		if li.FLOPs < 0 || li.ParamCount < 0 {
			t.Errorf("layer %s negative accounting", li.Name)
		}
	}
}

// The core partial-inference invariant: splitting the network at any point
// and running front-then-rear must compute the same function as a full
// forward pass (paper §III.B.2).
func TestSplitEquivalenceAllPoints(t *testing.T) {
	net := tinyNet(t)
	in := randInput(net, 7)
	full, err := net.Forward(in)
	if err != nil {
		t.Fatalf("full forward: %v", err)
	}
	for k := 0; k < net.NumLayers()-1; k++ {
		front, rear, err := net.Split(k)
		if err != nil {
			t.Fatalf("Split(%d): %v", k, err)
		}
		feat, err := front.Forward(in)
		if err != nil {
			t.Fatalf("front(%d): %v", k, err)
		}
		if rs := rear.InputShape(); tensor.Volume(rs) == feat.Len() && len(rs) != feat.Rank() {
			feat, err = feat.Reshape(rs...)
			if err != nil {
				t.Fatalf("reshape feature at %d: %v", k, err)
			}
		}
		got, err := rear.Forward(feat)
		if err != nil {
			t.Fatalf("rear(%d): %v", k, err)
		}
		if got.Len() != full.Len() {
			t.Fatalf("split %d: output len %d != %d", k, got.Len(), full.Len())
		}
		for i := range full.Data() {
			if d := math.Abs(float64(got.Data()[i] - full.Data()[i])); d > 1e-5 {
				t.Fatalf("split %d: output[%d] differs by %g", k, i, d)
			}
		}
	}
}

func TestSplitBounds(t *testing.T) {
	net := tinyNet(t)
	if _, _, err := net.Split(-1); !errors.Is(err, ErrBadSplit) {
		t.Errorf("Split(-1) err = %v, want ErrBadSplit", err)
	}
	if _, _, err := net.Split(net.NumLayers() - 1); !errors.Is(err, ErrBadSplit) {
		t.Errorf("Split(last) err = %v, want ErrBadSplit", err)
	}
}

func TestForwardRangeBounds(t *testing.T) {
	net := tinyNet(t)
	in := randInput(net, 3)
	if _, err := net.ForwardRange(in, 3, 2); !errors.Is(err, ErrBadSplit) {
		t.Errorf("reversed range err = %v, want ErrBadSplit", err)
	}
	out, err := net.ForwardRange(in, 0, 0)
	if err != nil {
		t.Fatalf("empty range: %v", err)
	}
	out.Data()[0] = 12345
	if in.Data()[0] == 12345 {
		t.Error("empty-range forward must return a copy, not alias the input")
	}
}

func TestPartitionPoints(t *testing.T) {
	net := tinyNet(t)
	pts, err := net.PartitionPoints()
	if err != nil {
		t.Fatalf("PartitionPoints: %v", err)
	}
	if len(pts) == 0 || pts[0].Label != "Input" {
		t.Fatalf("first point = %+v, want Input", pts)
	}
	labels := map[string]bool{}
	for _, p := range pts {
		if labels[p.Label] {
			t.Errorf("duplicate label %q", p.Label)
		}
		labels[p.Label] = true
		if p.FeatureBytes <= 0 {
			t.Errorf("point %q has non-positive feature bytes", p.Label)
		}
	}
	for _, want := range []string{"1st_conv", "1st_pool", "2nd_conv", "2nd_pool"} {
		if !labels[want] {
			t.Errorf("missing expected partition point %q", want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	net := tinyNet(t)
	data, err := EncodeSpec(net)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if got.NumLayers() != net.NumLayers() {
		t.Fatalf("layer count %d != %d", got.NumLayers(), net.NumLayers())
	}
	if got.TotalParams() != net.TotalParams() {
		t.Fatalf("params %d != %d", got.TotalParams(), net.TotalParams())
	}
	for i, l := range got.Layers() {
		if l.Type() != net.Layers()[i].Type() || l.Name() != net.Layers()[i].Name() {
			t.Errorf("layer %d: %s/%s != %s/%s", i, l.Type(), l.Name(),
				net.Layers()[i].Type(), net.Layers()[i].Name())
		}
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	net := tinyNet(t)
	var buf bytes.Buffer
	if err := net.EncodeWeights(&buf); err != nil {
		t.Fatalf("EncodeWeights: %v", err)
	}
	wantLen := 8 + 4*net.TotalParams()
	if int64(buf.Len()) != wantLen {
		t.Fatalf("weight blob %d bytes, want %d", buf.Len(), wantLen)
	}
	spec, err := net.Spec()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := clone.DecodeWeights(&buf); err != nil {
		t.Fatalf("DecodeWeights: %v", err)
	}
	in := randInput(net, 11)
	a, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clone.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatalf("round-tripped network diverges at output %d", i)
		}
	}
}

func TestWeightsDecodeErrors(t *testing.T) {
	net := tinyNet(t)
	if err := net.DecodeWeights(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("truncated header should fail")
	}
	bad := make([]byte, 8)
	if err := net.DecodeWeights(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	var buf bytes.Buffer
	if err := net.EncodeWeights(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if err := net.DecodeWeights(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated body should fail")
	}
}

func TestInitWeightsDeterministic(t *testing.T) {
	a := tinyNet(t)
	b := tinyNet(t)
	for i, l := range a.Layers() {
		bp := b.Layers()[i].Params()
		for j, p := range l.Params() {
			for k := range p.Data() {
				if p.Data()[k] != bp[j].Data()[k] {
					t.Fatalf("weights differ at layer %d param %d idx %d", i, j, k)
				}
			}
		}
	}
	c := tinyNet(t)
	c.InitWeights(999)
	same := true
	p := a.Layers()[1].Params()[0].Data()
	q := c.Layers()[1].Params()[0].Data()
	for i := range p {
		if p[i] != q[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different weights")
	}
}

// TestConvParallelMatchesSequential: the GEMM's fan-out across workers must
// be bit-identical to the single-threaded naive loop.
func TestConvParallelMatchesSequential(t *testing.T) {
	// Big enough for the GEMM to shard: 2*3*3*32*64*32*32 ≈ 38 MFLOP.
	c, err := NewConv("c", 32, 64, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.weight.Data() {
		c.weight.Data()[i] = float32(i%13)*0.1 - 0.6
	}
	in := tensor.MustNew(32, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = float32(i%29)*0.05 - 0.7
	}
	// Force multiple workers even on single-CPU machines.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	parallel, err := forwardLayer(c, in)
	if err != nil {
		t.Fatal(err)
	}
	sequential := tensor.MustNew(parallel.Shape()...)
	c.forwardChannels(in, sequential, 0, 64)
	for i := range parallel.Data() {
		if parallel.Data()[i] != sequential.Data()[i] {
			t.Fatalf("parallel and sequential conv differ at %d", i)
		}
	}
}

// Property: for random valid conv geometries, FLOPs is exactly
// 2*k*k*inC*outVolume and the forward output matches OutputShape.
func TestQuickConvAccounting(t *testing.T) {
	f := func(inC, outC, k, size uint8) bool {
		ic := int(inC%3) + 1
		oc := int(outC%4) + 1
		kk := int(k%3) + 1
		sz := int(size%5) + kk // ensure input >= kernel
		c, err := NewConv("c", ic, oc, kk, 1, 0)
		if err != nil {
			return false
		}
		in := tensor.MustNew(ic, sz, sz)
		out, err := forwardLayer(c, in)
		if err != nil {
			return false
		}
		wantShape, err := c.OutputShape(in.Shape())
		if err != nil {
			return false
		}
		if !tensor.SameShape(out, tensor.MustNew(wantShape...)) {
			return false
		}
		fl, err := c.FLOPs(in.Shape())
		if err != nil {
			return false
		}
		return fl == int64(2*kk*kk*ic)*int64(tensor.Volume(wantShape))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
