package snapshot

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"websnap/internal/nn"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// tinyModel builds a small but real CNN for snapshot tests.
func tinyModel(t *testing.T) *nn.Network {
	t.Helper()
	in, err := nn.NewInput("data", 1, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := nn.NewConv("conv1", 1, 2, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := nn.NewPool("pool1", nn.MaxPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewFC("fc1", 2*3*3, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("tinymodel", in, conv, nn.NewReLU("relu1"), pool, fc, nn.NewSoftmax("prob"))
	if err != nil {
		t.Fatal(err)
	}
	net.InitWeights(42)
	return net
}

// inferenceApp mirrors the paper's Fig 2 example: a load handler that puts
// an image into a global, and an inference handler that runs the model and
// writes the result into the DOM.
func inferenceApp(t *testing.T) (*webapp.App, *webapp.Registry) {
	t.Helper()
	reg := webapp.NewRegistry("fig2-app")
	reg.MustRegister("load_image", func(app *webapp.App, ev webapp.Event) error {
		img := make(webapp.Float32Array, 36)
		for i := range img {
			img[i] = float32(i%7) * 0.3
		}
		return app.SetGlobal("image", img)
	})
	reg.MustRegister("inference", func(app *webapp.App, ev webapp.Event) error {
		model, ok := app.Model("tinymodel")
		if !ok {
			return errors.New("model not loaded")
		}
		imgV, ok := app.Global("image")
		if !ok {
			return errors.New("image not loaded")
		}
		img := imgV.(webapp.Float32Array)
		in, err := tensor.FromSlice([]float32(img), 1, 6, 6)
		if err != nil {
			return err
		}
		out, err := model.Forward(in)
		if err != nil {
			return err
		}
		idx, _ := out.MaxIndex()
		app.DOM().Find("result").Text = []string{"cat", "dog", "bird"}[idx]
		return app.SetGlobal("scores", webapp.Float32Array(out.Data()))
	})
	app, err := webapp.NewApp("fig2-instance", reg)
	if err != nil {
		t.Fatal(err)
	}
	app.DOM().AppendChild(webapp.NewNode("button", "btn"))
	app.DOM().AppendChild(webapp.NewNode("p", "result"))
	app.LoadModel("tinymodel", tinyModel(t))
	if err := app.AddEventListener("btn", "load", "load_image"); err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("btn", "click", "inference"); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: "btn", Type: "load"})
	if _, err := app.Run(1); err != nil {
		t.Fatal(err)
	}
	return app, reg
}

// preSent resolves models from app, standing in for the server's store of
// the models the client pre-sent.
func preSent(app *webapp.App) RestoreOptions {
	return RestoreOptions{Models: ResolverFunc(app.Model)}
}

// TestOffloadRoundTrip exercises the paper's whole Fig 3 flow in-process:
// capture just before the inference handler runs, encode, decode, restore
// on a "server", run the handler there, capture the result, bring it back,
// and check the client sees the same result as local execution.
func TestOffloadRoundTrip(t *testing.T) {
	app, reg := inferenceApp(t)

	// Local reference execution.
	local, _ := webapp.NewApp("ref", reg)
	local.ReplaceGlobals(app.Globals())
	local.ReplaceDOM(app.DOM().Clone())
	if err := local.ReplaceBindings(app.Bindings()); err != nil {
		t.Fatal(err)
	}
	m, _ := app.Model("tinymodel")
	local.LoadModel("tinymodel", m)
	local.DispatchEvent(webapp.Event{Target: "btn", Type: "click"})
	if _, err := local.Run(1); err != nil {
		t.Fatal(err)
	}
	wantResult := local.DOM().Find("result").Text
	if wantResult == "" || wantResult == "?" {
		t.Fatalf("reference run produced no result")
	}

	// Client: capture with the pending inference event.
	snap, err := Capture(app, Options{
		PendingEvent: &webapp.Event{Target: "btn", Type: "click"},
	})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// Server: decode, restore, continue execution.
	serverSnap, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	serverApp, err := Restore(serverSnap, reg, preSent(app))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := serverApp.Run(5); err != nil {
		t.Fatalf("server Run: %v", err)
	}
	if got := serverApp.DOM().Find("result").Text; got != wantResult {
		t.Fatalf("server result = %q, want %q", got, wantResult)
	}

	// Server: capture the result snapshot (no model — client has it).
	resultSnap, err := Capture(serverApp, Options{DefaultModelPolicy: ModelOmit})
	if err != nil {
		t.Fatalf("result Capture: %v", err)
	}
	resultWire, err := resultSnap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(resultWire) >= len(wire) {
		t.Errorf("result snapshot (%d B) should be smaller than full snapshot (%d B)", len(resultWire), len(wire))
	}

	// Client: apply the result to the app, which keeps its own model.
	back, err := Decode(resultWire)
	if err != nil {
		t.Fatal(err)
	}
	clientApp := app
	if err := back.ApplyTo(clientApp, RestoreOptions{}); err != nil {
		t.Fatalf("client ApplyTo: %v", err)
	}
	if got := clientApp.DOM().Find("result").Text; got != wantResult {
		t.Errorf("client result = %q, want %q", got, wantResult)
	}
	if _, ok := clientApp.Model("tinymodel"); !ok {
		t.Error("client should retain its model")
	}
	scores, ok := clientApp.Global("scores")
	if !ok {
		t.Fatal("scores global missing after round trip")
	}
	wantScores, _ := local.Global("scores")
	if !webapp.Identical(scores, wantScores) {
		t.Error("scores differ from local execution")
	}
}

func TestEncodeDecodeStateFidelity(t *testing.T) {
	app, _ := inferenceApp(t)
	if err := app.SetGlobal("config", map[string]webapp.Value{
		"threshold": 0.5,
		"labels":    []webapp.Value{"a", "b"},
		"debug":     true,
		"none":      nil,
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppID != snap.AppID || got.CodeHash != snap.CodeHash {
		t.Error("identity fields corrupted")
	}
	if !got.DOM.Equal(snap.DOM) {
		t.Error("DOM corrupted")
	}
	if len(got.Bindings) != len(snap.Bindings) {
		t.Fatalf("bindings %d != %d", len(got.Bindings), len(snap.Bindings))
	}
	for name, v := range snap.Globals {
		if !webapp.Identical(got.Globals[name], v) {
			t.Errorf("global %q corrupted", name)
		}
	}
	if len(got.Models) != 1 || got.Models[0].Name != "tinymodel" {
		t.Fatalf("models = %+v", got.Models)
	}
	if string(got.Models[0].Spec) != string(snap.Models[0].Spec) {
		t.Error("model spec corrupted")
	}
}

func TestCaptureIsolation(t *testing.T) {
	app, _ := inferenceApp(t)
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the app after capture; the snapshot must not change.
	img, _ := app.Global("image")
	img.(webapp.Float32Array)[0] = 777
	app.DOM().Find("result").Text = "mutated"
	if snap.Globals["image"].(webapp.Float32Array)[0] == 777 {
		t.Error("snapshot aliases app globals")
	}
	if snap.DOM.Find("result").Text == "mutated" {
		t.Error("snapshot aliases app DOM")
	}
}

func TestModelPolicies(t *testing.T) {
	app, _ := inferenceApp(t)

	specOnly, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	omit, err := Capture(app, Options{DefaultModelPolicy: ModelOmit})
	if err != nil {
		t.Fatal(err)
	}
	specWire, _ := specOnly.Encode()
	omitWire, _ := omit.Encode()
	if len(specWire) <= len(omitWire) {
		t.Errorf("size ordering violated: spec=%d omit=%d", len(specWire), len(omitWire))
	}
	if len(specOnly.Models) != 1 {
		t.Error("the zero policy should name the model spec-only")
	}
	if len(omit.Models) != 0 {
		t.Error("ModelOmit should drop models")
	}

	perModel, err := Capture(app, Options{
		DefaultModelPolicy: ModelOmit,
		ModelPolicies:      map[string]ModelPolicy{"tinymodel": ModelSpecOnly},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(perModel.Models) != 1 {
		t.Error("per-model policy override ignored")
	}
}

func TestRestoreSpecOnlyNeedsResolver(t *testing.T) {
	app, reg := inferenceApp(t)
	snap, err := Capture(app, Options{DefaultModelPolicy: ModelSpecOnly})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snap, reg, RestoreOptions{}); !errors.Is(err, ErrModelUnavailable) {
		t.Errorf("restore without resolver = %v, want ErrModelUnavailable", err)
	}
	m, _ := app.Model("tinymodel")
	restored, err := Restore(snap, reg, RestoreOptions{
		Models: ResolverFunc(func(name string) (*nn.Network, bool) {
			if name == "tinymodel" {
				return m, true
			}
			return nil, false
		}),
	})
	if err != nil {
		t.Fatalf("restore with resolver: %v", err)
	}
	if _, ok := restored.Model("tinymodel"); !ok {
		t.Error("resolved model missing")
	}
}

// TestSpecOnlyReferenceMustMatchStoredModel: a spec-only reference names a
// model and declares its architecture. A resolver holding a network of
// another architecture under that name must not have it run in the
// declared one's place: restore refuses it as unavailable. The same
// network under the same name restores.
func TestSpecOnlyReferenceMustMatchStoredModel(t *testing.T) {
	app, reg := inferenceApp(t)
	snap, err := Capture(app, Options{DefaultModelPolicy: ModelSpecOnly})
	if err != nil {
		t.Fatal(err)
	}
	// Decode from the wire, as a server does: the check is on the bytes that
	// arrived, not on the captured state.
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = Decode(wire); err != nil {
		t.Fatal(err)
	}
	in, _ := nn.NewInput("data", 1, 6, 6)
	conv, _ := nn.NewConv("conv1", 1, 4, 3, 1, 1) // 4 channels, not 2
	pool, _ := nn.NewPool("pool1", nn.MaxPool, 2, 2, 0)
	fc, _ := nn.NewFC("fc1", 4*3*3, 3)
	other, err := nn.NewNetwork("tinymodel", in, conv, nn.NewReLU("relu1"), pool, fc, nn.NewSoftmax("prob"))
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := app.Model("tinymodel")
	for _, tc := range []struct {
		name string
		net  *nn.Network
		ok   bool
	}{
		{"same architecture", stored, true},
		{"rebuilt from its spec", tinyModel(t), true},
		{"other architecture", other, false},
	} {
		_, err := Restore(snap, reg, RestoreOptions{
			Models: ResolverFunc(func(string) (*nn.Network, bool) { return tc.net, true }),
		})
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: restore: %v", tc.name, err)
		case !tc.ok && !errors.Is(err, ErrModelUnavailable):
			t.Errorf("%s: restore = %v, want ErrModelUnavailable", tc.name, err)
		}
	}
}

func TestRestoreCodeMismatch(t *testing.T) {
	app, _ := inferenceApp(t)
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := webapp.NewRegistry("different-app")
	other.MustRegister("x", func(*webapp.App, webapp.Event) error { return nil })
	if _, err := Restore(snap, other, RestoreOptions{}); !errors.Is(err, ErrCodeMismatch) {
		t.Errorf("err = %v, want ErrCodeMismatch", err)
	}
}

func TestReservedKeyRejected(t *testing.T) {
	app, _ := inferenceApp(t)
	if err := app.SetGlobal("sneaky", map[string]webapp.Value{"__f32__": "boom"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(app, Options{}); !errors.Is(err, ErrReservedKey) {
		t.Errorf("err = %v, want ErrReservedKey", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	app, _ := inferenceApp(t)
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad header", []byte("// not a snapshot\n")},
		{"garbage line", append([]byte(header+"\n"), []byte("meow;\n")...)},
		{"truncated", wire[:len(wire)/3]},
		{"no dom", []byte(header + "\nvar __appID = \"a\";\nvar __codeHash = \"b\";\n")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.data); err == nil {
				t.Error("corrupt input decoded without error")
			}
		})
	}
}

// TestDecodeCorruptModelLine: a __model line carries a name, an object spec
// and an empty weights literal — a model's weights arrive only as a pre-send —
// and anything else in it is ErrCorrupt.
func TestDecodeCorruptModelLine(t *testing.T) {
	decode := func(args string) error {
		_, err := Decode([]byte(strings.Join([]string{
			header,
			`var __appID = "a";`,
			`var __codeHash = "b";`,
			`__model(` + args + `);`,
			`__dom({"tag":"body"});`,
		}, "\n") + "\n"))
		return err
	}
	if err := decode(`"m", {"name":"m","layers":[]}, ""`); err != nil {
		t.Fatalf("a model reference: %v", err)
	}
	for name, args := range map[string]string{
		"valid base64 weights":     `"m", {"name":"m","layers":[]}, "AACAPwAAgD8="`,
		"bad base64 weights":       `"m", {"name":"m","layers":[]}, "!!notbase64!!"`,
		"spec that is not object":  `"m", ["name","m"], ""`,
		"no weights literal":       `"m", {"name":"m","layers":[]}`,
		"weights literal unclosed": `"m", {"name":"m","layers":[]}, "`,
	} {
		if err := decode(args); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestBreakdown(t *testing.T) {
	app, _ := inferenceApp(t)
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := snap.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalBytes <= 0 {
		t.Fatal("total must be positive")
	}
	if bd.ModelBytes <= 0 || bd.FeatureBytes <= 0 || bd.StateBytes <= 0 {
		t.Errorf("breakdown has non-positive component: %+v", bd)
	}
	if bd.ModelBytes+bd.FeatureBytes+bd.StateBytes != bd.TotalBytes {
		t.Errorf("breakdown does not sum: %+v", bd)
	}
	if bd.ExceptFeatureBytes() != bd.TotalBytes-bd.FeatureBytes {
		t.Error("ExceptFeatureBytes inconsistent")
	}

	// Omitting the model drops the model part but leaves the feature part
	// unchanged.
	omit, err := Capture(app, Options{DefaultModelPolicy: ModelOmit})
	if err != nil {
		t.Fatal(err)
	}
	bd2, err := omit.Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if bd2.ModelBytes != 0 {
		t.Errorf("omitted model part = %d, want 0", bd2.ModelBytes)
	}
	if bd2.FeatureBytes != bd.FeatureBytes {
		t.Error("feature part should be unaffected by model policy")
	}
}

// Property: any normalized value tree survives the snapshot wire encoding.
func TestQuickValueWireRoundTrip(t *testing.T) {
	f := func(n float64, s string, fs []float32, flag bool) bool {
		v, err := webapp.Normalize(map[string]webapp.Value{
			"n": n, "s": s, "f": fs, "b": flag,
			"nested": []webapp.Value{n, map[string]webapp.Value{"x": s}},
		})
		if err != nil {
			return false
		}
		enc, err := appendValue(nil, v)
		if err != nil {
			return false
		}
		got, err := parseValue(enc)
		if err != nil {
			return false
		}
		return webapp.Identical(v, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoding is deterministic — same snapshot, same bytes.
func TestQuickEncodeDeterministic(t *testing.T) {
	app, _ := inferenceApp(t)
	snap, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatal("Encode is not deterministic")
		}
	}
}
