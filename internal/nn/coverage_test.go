package nn

import (
	"bytes"
	"testing"

	"websnap/internal/tensor"
)

// inceptionNet builds a small net containing every layer type, so the
// serialization and accounting paths for all of them are exercised here
// (the big models cover them indirectly from other packages).
func inceptionNet(t *testing.T) *Network {
	t.Helper()
	in, err := NewInput("data", 3, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := NewLRN("norm", 3, 0.0001, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := NewConv("inc_1x1", 3, 2, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2r, err := NewConv("inc_3x3_reduce", 3, 2, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewConv("inc_3x3", 2, 4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b3p, err := NewPool("inc_pool", MaxPool, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := NewConv("inc_proj", 3, 2, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewInception("inc",
		[]Layer{b1, NewReLU("r1")},
		[]Layer{b2r, b2},
		[]Layer{b3p, b3},
	)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool("pool", AvgPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFC("fc", 8*4*4, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("mini-inception",
		in, lrn, inc, NewDropout("drop", 0.4), pool, fc, NewSoftmax("prob"))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(5)
	return net
}

func TestInceptionNetAccounting(t *testing.T) {
	net := inceptionNet(t)
	if net.Name() != "mini-inception" {
		t.Errorf("Name = %q", net.Name())
	}
	fl, err := net.TotalFLOPs()
	if err != nil || fl <= 0 {
		t.Errorf("TotalFLOPs = %d, %v", fl, err)
	}
	if net.ModelBytes() != 4*net.TotalParams() {
		t.Error("ModelBytes != 4*params")
	}
	var inc *Inception
	for _, l := range net.Layers() {
		if v, ok := l.(*Inception); ok {
			inc = v
		}
	}
	if inc == nil {
		t.Fatal("no inception layer")
	}
	if inc.Name() != "inc" || inc.Type() != TypeInception {
		t.Errorf("inception identity: %s/%s", inc.Name(), inc.Type())
	}
	if len(inc.Branches()) != 3 {
		t.Errorf("branches = %d", len(inc.Branches()))
	}
	if inc.ParamCount() <= 0 || len(inc.Params()) == 0 {
		t.Error("inception params not accounted")
	}
	flInc, err := inc.FLOPs([]int{3, 8, 8})
	if err != nil || flInc <= 0 {
		t.Errorf("inception FLOPs = %d, %v", flInc, err)
	}
}

func TestInceptionNetSerializeRoundTrip(t *testing.T) {
	net := inceptionNet(t)
	data, err := EncodeSpec(net)
	if err != nil {
		t.Fatal(err)
	}
	// Behavior equivalence after weight transfer.
	var buf bytes.Buffer
	if err := net.EncodeWeights(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := DecodeModel(data, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if clone.TotalParams() != net.TotalParams() {
		t.Fatalf("params %d != %d", clone.TotalParams(), net.TotalParams())
	}
	in := tensor.MustNew(3, 8, 8)
	for i := range in.Data() {
		in.Data()[i] = float32(i%17) * 0.1
	}
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
			t.Fatalf("outputs differ at %d", i)
		}
	}
	// Layer metadata survived.
	for i, l := range clone.Layers() {
		orig := net.Layers()[i]
		if l.Name() != orig.Name() || l.Type() != orig.Type() {
			t.Errorf("layer %d: %s/%s != %s/%s", i, l.Name(), l.Type(), orig.Name(), orig.Type())
		}
	}
	// Spot-check preserved settings.
	lrn, ok := clone.Layers()[1].(*LRN)
	if !ok {
		t.Fatal("layer 1 is not LRN after round trip")
	}
	if ls, a1, b1 := lrn.Settings(); ls != 3 || a1 != 0.0001 || b1 != 0.75 {
		t.Errorf("LRN settings = %d/%v/%v", ls, a1, b1)
	}
	drop, ok := clone.Layers()[3].(*Dropout)
	if !ok {
		t.Fatal("layer 3 is not Dropout after round trip")
	}
	if drop.Ratio() != 0.4 {
		t.Errorf("dropout ratio = %v", drop.Ratio())
	}
	if drop.Name() != "drop" || drop.Type() != TypeDropout {
		t.Error("dropout identity lost")
	}
	if shape, err := drop.OutputShape([]int{8, 8, 8}); err != nil || len(shape) != 3 {
		t.Errorf("dropout OutputShape = %v, %v", shape, err)
	}
	if fl, err := drop.FLOPs([]int{8}); err != nil || fl != 0 {
		t.Errorf("dropout FLOPs = %d, %v", fl, err)
	}
	if drop.ParamCount() != 0 || drop.Params() != nil {
		t.Error("dropout must be parameterless")
	}
}

func TestSerializeUnknownLayerType(t *testing.T) {
	if _, err := Build(NetSpec{Name: "x", Layers: []LayerSpec{{Type: "warp-drive", Name: "w"}}}); err == nil {
		t.Error("unknown layer type should fail")
	}
}
