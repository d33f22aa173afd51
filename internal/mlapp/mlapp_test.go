package mlapp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
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

// TestBatchHandlersMatchPerAppHandlers pins the contract the edge
// scheduler's micro-batching relies on, at the level the client sees it:
// for the full and the rear handler, at float32 and int8, the per-app
// handler, the batched handler over one app, and the batched handler over
// all apps leave byte-identical encoded result snapshots per app.
func TestBatchHandlersMatchPerAppHandlers(t *testing.T) {
	const n = 3
	model := tinyModel(t)
	kinds := []struct {
		name    string
		handler string
		reg     *webapp.Registry
		solo    webapp.HandlerFunc
		ev      webapp.Event
		build   func(img webapp.Float32Array) *webapp.App
	}{
		{"full", "inference", FullRegistry(), handleInference, webapp.Event{Target: ButtonID, Type: EventClick},
			func(img webapp.Float32Array) *webapp.App {
				app, err := NewFullApp("a", "tiny", model, labels)
				if err != nil {
					t.Fatal(err)
				}
				if err := LoadImage(app, img); err != nil {
					t.Fatal(err)
				}
				return app
			}},
		{"rear", "rear", PartialRegistry(), handleRear, webapp.Event{Target: ButtonID, Type: EventFrontComplete},
			func(img webapp.Float32Array) *webapp.App {
				app, err := NewPartialApp("a", "tiny", model, 2, labels)
				if err != nil {
					t.Fatal(err)
				}
				if err := LoadImage(app, img); err != nil {
					t.Fatal(err)
				}
				// Run front() so the feature global is populated, and drop
				// the front_complete event it dispatched.
				app.DispatchEvent(webapp.Event{Target: ButtonID, Type: EventClick})
				if err := app.Step(); err != nil {
					t.Fatal(err)
				}
				app.ClearEvents()
				return app
			}},
	}
	encoded := func(app *webapp.App) []byte {
		snap, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
		if err != nil {
			t.Fatal(err)
		}
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, k := range kinds {
		for _, prec := range []nn.Precision{nn.PrecFloat32, nn.PrecInt8} {
			t.Run(k.name+"/"+string(prec), func(t *testing.T) {
				fn, ok := k.reg.BatchHandler(k.handler)
				if !ok {
					t.Fatalf("registry has no batched %s handler", k.handler)
				}
				// groups[g][i]: app i prepared identically for execution
				// strategy g (solo handler, batch of one, batch of all).
				var groups [3][]*webapp.App
				for i := 0; i < n; i++ {
					img := SyntheticImage(3*16*16, uint64(i+1))
					for g := range groups {
						app := k.build(img)
						if err := SetQuality(app, prec); err != nil {
							t.Fatal(err)
						}
						groups[g] = append(groups[g], app)
					}
				}
				evs := []webapp.Event{k.ev, k.ev, k.ev}
				for i := 0; i < n; i++ {
					if err := k.solo(groups[0][i], k.ev); err != nil {
						t.Fatal(err)
					}
					if err := fn(groups[1][i:i+1], evs[:1]); err != nil {
						t.Fatal(err)
					}
				}
				if err := fn(groups[2], evs); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					want := encoded(groups[0][i])
					if Result(groups[0][i]) == "" {
						t.Fatalf("app %d: solo handler published no result", i)
					}
					for g, how := range []string{"", "batch of one", "batch of three"} {
						if g > 0 && !bytes.Equal(encoded(groups[g][i]), want) {
							t.Errorf("app %d: %s leaves a different result snapshot than the solo handler", i, how)
						}
					}
				}
			})
		}
	}
}

func TestBatchRegistrationHashNeutral(t *testing.T) {
	// Batched handlers are an execution strategy, not app code: a registry
	// with them must hash identically to one without.
	plain := webapp.NewRegistry("mlapp-full")
	plain.MustRegister("load_image", handleLoadImage)
	plain.MustRegister("inference", handleInference)
	if plain.CodeHash() != FullRegistry().CodeHash() {
		t.Error("batch handler registration changed the code hash")
	}
}
