package mlapp

import (
	"math"
	"strings"
	"testing"

	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

func tinyModel(t *testing.T) *nn.Network {
	t.Helper()
	m, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var labels = []string{"cat", "dog", "bird"}

func TestRegistriesAreStable(t *testing.T) {
	a := FullRegistry()
	b := FullRegistry()
	if a.CodeHash() != b.CodeHash() {
		t.Error("FullRegistry hash unstable")
	}
	p := PartialRegistry()
	if a.CodeHash() == p.CodeHash() {
		t.Error("full and partial bundles must differ")
	}
}

func TestFullAppInference(t *testing.T) {
	app, err := NewFullApp("a", "tiny", tinyModel(t), labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadImage(app, SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
	if _, err := app.Run(5); err != nil {
		t.Fatal(err)
	}
	res := Result(app)
	found := false
	for _, l := range labels {
		if res == l {
			found = true
		}
	}
	if !found {
		t.Errorf("result %q not one of the labels", res)
	}
	if node := app.DOM().Find(ResultID); node.Text != res {
		t.Error("DOM and result global disagree")
	}
	scores, ok := app.Global(GlobalScores)
	if !ok {
		t.Fatal("scores global missing")
	}
	var sum float64
	for _, v := range scores.(webapp.Float32Array) {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("scores sum = %v, want 1 (softmax)", sum)
	}
}

func TestFullAppMatchesDirectForward(t *testing.T) {
	model := tinyModel(t)
	app, err := NewFullApp("a", "tiny", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	img := SyntheticImage(3*16*16, 9)
	if err := LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
	if _, err := app.Run(5); err != nil {
		t.Fatal(err)
	}
	in, err := tensor.FromSlice([]float32(img), model.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := out.MaxIndex()
	if got := Result(app); got != labels[idx] {
		t.Errorf("app result %q != direct forward argmax %q", got, labels[idx])
	}
}

func TestPartialAppMatchesFullApp(t *testing.T) {
	model := tinyModel(t)
	img := SyntheticImage(3*16*16, 4)

	full, err := NewFullApp("f", "tiny", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadImage(full, img); err != nil {
		t.Fatal(err)
	}
	full.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
	if _, err := full.Run(5); err != nil {
		t.Fatal(err)
	}

	for split := 1; split < model.NumLayers()-1; split++ {
		partial, err := NewPartialApp("p", "tiny", model, split, labels)
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		if err := LoadImage(partial, img); err != nil {
			t.Fatal(err)
		}
		partial.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
		if _, err := partial.Run(5); err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		if got, want := Result(partial), Result(full); got != want {
			t.Errorf("split %d: partial result %q != full %q", split, got, want)
		}
	}
}

func TestPartialAppDropsImage(t *testing.T) {
	app, err := NewPartialApp("p", "tiny", tinyModel(t), 3, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadImage(app, SyntheticImage(3*16*16, 2)); err != nil {
		t.Fatal(err)
	}
	// Run ONLY front(): the click handler.
	app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
	if err := app.Step(); err != nil {
		t.Fatal(err)
	}
	if v, _ := app.Global(GlobalImage); v != nil {
		t.Error("front() must null the image before the offload point")
	}
	if _, ok := app.Global(GlobalFeature); !ok {
		t.Error("front() must publish the feature data")
	}
	ev, ok := app.PeekEvent()
	if !ok || ev.Type != EventFrontComplete {
		t.Errorf("pending event = %+v, want front_complete", ev)
	}
}

func TestPartialAppBadSplit(t *testing.T) {
	model := tinyModel(t)
	if _, err := NewPartialApp("p", "tiny", model, model.NumLayers(), labels); err == nil {
		t.Error("out-of-range split should fail")
	}
}

func TestHandlersErrorPaths(t *testing.T) {
	model := tinyModel(t)
	t.Run("inference without image", func(t *testing.T) {
		app, err := NewFullApp("a", "tiny", model, labels)
		if err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
		if err := app.Step(); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("err = %v, want missing-global error", err)
		}
	})
	t.Run("load with bad payload", func(t *testing.T) {
		app, err := NewFullApp("a", "tiny", model, labels)
		if err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventLoad, Payload: "not pixels"})
		if err := app.Step(); err == nil {
			t.Error("non-array payload should fail")
		}
	})
	t.Run("wrong image size", func(t *testing.T) {
		app, err := NewFullApp("a", "tiny", model, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := LoadImage(app, SyntheticImage(7, 1)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
		if err := app.Step(); err == nil {
			t.Error("mis-sized image should fail at inference")
		}
	})
	t.Run("model not loaded", func(t *testing.T) {
		app, err := webapp.NewApp("bare", FullRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if err := app.SetGlobal(GlobalModelName, "ghost"); err != nil {
			t.Fatal(err)
		}
		if err := app.AddEventListener(ButtonID, EventClick, "inference"); err != nil {
			t.Fatal(err)
		}
		if err := app.SetGlobal(GlobalImage, SyntheticImage(4, 1)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
		if err := app.Step(); err == nil || !strings.Contains(err.Error(), "not loaded") {
			t.Errorf("err = %v, want not-loaded error", err)
		}
	})
}

func TestSyntheticImageDeterministic(t *testing.T) {
	a := SyntheticImage(100, 5)
	b := SyntheticImage(100, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("pixel %d out of [0,1]: %v", i, a[i])
		}
	}
	c := SyntheticImage(100, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestResultWithoutInference(t *testing.T) {
	app, err := NewFullApp("a", "tiny", tinyModel(t), labels)
	if err != nil {
		t.Fatal(err)
	}
	if got := Result(app); got != "" {
		t.Errorf("Result before inference = %q, want empty", got)
	}
}

func TestPublishResultWithoutLabels(t *testing.T) {
	// Fewer labels than classes: fall back to "class N".
	app, err := NewFullApp("a", "tiny", tinyModel(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadImage(app, SyntheticImage(3*16*16, 3)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
	if _, err := app.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := Result(app); !strings.HasPrefix(got, "class ") {
		t.Errorf("result = %q, want class-index fallback", got)
	}
}
