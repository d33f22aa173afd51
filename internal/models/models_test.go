package models

import (
	"testing"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("resnet"); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestNamesOrder(t *testing.T) {
	want := []string{GoogLeNet, AgeNet, GenderNet}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestGoogLeNetGeometry checks the stage dimensions the paper's Fig 1 shows.
func TestGoogLeNetGeometry(t *testing.T) {
	net, err := Build(GoogLeNet)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	infos, err := net.Describe()
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	byName := map[string]nn.LayerInfo{}
	for _, li := range infos {
		byName[li.Name] = li
	}
	tests := []struct {
		layer string
		want  []int
	}{
		{"data", []int{3, 224, 224}},
		{"conv1", []int{64, 112, 112}},
		{"pool1", []int{64, 56, 56}}, // the paper's 56x56x64 feature data
		{"conv2", []int{192, 56, 56}},
		{"pool2", []int{192, 28, 28}},
		{"inception_3a", []int{256, 28, 28}},
		{"inception_3b", []int{480, 28, 28}},
		{"pool3", []int{480, 14, 14}},
		{"inception_4e", []int{832, 14, 14}},
		{"pool4", []int{832, 7, 7}},
		{"inception_5b", []int{1024, 7, 7}},
		{"pool5", []int{1024, 1, 1}},
		{"loss3_classifier", []int{1000}},
	}
	for _, tt := range tests {
		li, ok := byName[tt.layer]
		if !ok {
			t.Errorf("layer %q missing", tt.layer)
			continue
		}
		if tensor.Volume(li.OutputShape) != tensor.Volume(tt.want) || len(li.OutputShape) != len(tt.want) {
			t.Errorf("%s output = %v, want %v", tt.layer, li.OutputShape, tt.want)
			continue
		}
		for i := range tt.want {
			if li.OutputShape[i] != tt.want[i] {
				t.Errorf("%s output = %v, want %v", tt.layer, li.OutputShape, tt.want)
				break
			}
		}
	}
}

// TestModelSizes checks parameter bytes against the paper's reported model
// sizes (27 MB GoogLeNet, 44 MB AgeNet/GenderNet) with a 10% tolerance.
func TestModelSizes(t *testing.T) {
	tests := []struct {
		name    string
		paperMB float64
	}{
		{GoogLeNet, 27},
		{AgeNet, 44},
		{GenderNet, 44},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net, err := Build(tt.name)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			gotMB := float64(net.ModelBytes()) / 1e6
			if gotMB < tt.paperMB*0.9 || gotMB > tt.paperMB*1.1 {
				t.Errorf("%s model size = %.1f MB, want within 10%% of %0.f MB",
					tt.name, gotMB, tt.paperMB)
			}
		})
	}
}

func TestAgeGenderDifferOnlyInClassifier(t *testing.T) {
	age, err := Build(AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	gender, err := Build(GenderNet)
	if err != nil {
		t.Fatal(err)
	}
	if age.NumLayers() != gender.NumLayers() {
		t.Fatalf("layer counts differ: %d vs %d", age.NumLayers(), gender.NumLayers())
	}
	aOut, err := age.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	gOut, err := gender.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if aOut[0] != 8 || gOut[0] != 2 {
		t.Errorf("outputs = %v / %v, want 8 age brackets / 2 genders", aOut, gOut)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	ap := a.Layers()[1].Params()[0].Data()
	bp := b.Layers()[1].Params()[0].Data()
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("weights not deterministic at %d", i)
		}
	}
}

func TestModelsSerializeRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			net, err := Build(name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := nn.EncodeSpec(net)
			if err != nil {
				t.Fatalf("EncodeSpec: %v", err)
			}
			clone, err := nn.DecodeSpec(data)
			if err != nil {
				t.Fatalf("DecodeSpec: %v", err)
			}
			if clone.TotalParams() != net.TotalParams() {
				t.Errorf("params after round trip: %d != %d", clone.TotalParams(), net.TotalParams())
			}
		})
	}
}

// TestPartitionPointFeatureSizes verifies the paper's §IV.B observation in
// binary terms: GoogLeNet feature data surges at 1st_conv and shrinks at
// 1st_pool (14.7 MB vs 2.9 MB in the paper's textual snapshot encoding;
// here 3.21 MB vs 0.80 MB of float32s — the same 4x ratio).
func TestPartitionPointFeatureSizes(t *testing.T) {
	net, err := Build(GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := net.PartitionPoints()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]int64{}
	for _, p := range pts {
		byLabel[p.Label] = p.FeatureBytes
	}
	conv1, pool1 := byLabel["1st_conv"], byLabel["1st_pool"]
	if conv1 == 0 || pool1 == 0 {
		t.Fatalf("missing partition points: %v", byLabel)
	}
	if conv1 <= byLabel["Input"] {
		t.Error("1st_conv feature data should exceed the input size")
	}
	ratio := float64(conv1) / float64(pool1)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("conv1/pool1 feature ratio = %.2f, want ~4 (paper: 14.7/2.9 ~= 5 textual)", ratio)
	}
}

// TestEncodeSpecIsStable: a spec-only reference is accepted only when its
// descriptor equals the stored model's byte for byte, so the encoding must
// be a function of the architecture alone — the same bytes for a model
// built twice, for one rebuilt from its own pre-send (DecodeSpec, then
// EncodeSpec), for a split's rear, and after an int8 plan is compiled. And
// the memo behind EncodeSpec must hand each caller a copy of its own.
func TestEncodeSpecIsStable(t *testing.T) {
	build := func(name string) *nn.Network {
		t.Helper()
		builder := Build
		if name == "tinynet" {
			builder = func(name string) (*nn.Network, error) { return BuildTinyNet(name, 3) }
		}
		net, err := builder(name)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	encode := func(net *nn.Network) []byte {
		t.Helper()
		spec, err := nn.EncodeSpec(net)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for _, name := range append(Names(), "tinynet") {
		t.Run(name, func(t *testing.T) {
			net := build(name)
			want := encode(net)
			if got := encode(build(name)); string(got) != string(want) {
				t.Errorf("built twice: %d B vs %d B of spec", len(got), len(want))
			}
			rebuilt, err := nn.DecodeSpec(want)
			if err != nil {
				t.Fatal(err)
			}
			if got := encode(rebuilt); string(got) != string(want) {
				t.Errorf("rebuilt from its pre-send: %s, want %s", got, want)
			}
			_, rear, err := net.Split(net.NumLayers() / 2)
			if err != nil {
				t.Fatal(err)
			}
			rearSpec := encode(rear)
			if rebuilt, err = nn.DecodeSpec(rearSpec); err != nil {
				t.Fatal(err)
			}
			if got := encode(rebuilt); string(got) != string(rearSpec) {
				t.Errorf("split rear rebuilt from its pre-send: %s, want %s", got, rearSpec)
			}
			if name == "tinynet" {
				if _, err := net.PlanPrec(nn.PrecInt8, net.InputShape()...); err != nil {
					t.Fatal(err)
				}
				if got := encode(net); string(got) != string(want) {
					t.Errorf("after an int8 plan: %s, want %s", got, want)
				}
			}
			spec := encode(net)
			spec[0] = 'x'
			if got := encode(net); string(got) != string(want) {
				t.Error("writing to EncodeSpec's result changed the next one")
			}
		})
	}
}
