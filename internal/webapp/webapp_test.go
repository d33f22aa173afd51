package webapp

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   Value
		want Value
	}{
		{"nil", nil, nil},
		{"bool", true, true},
		{"int", 3, float64(3)},
		{"int64", int64(4), float64(4)},
		{"float32", float32(1.5), float64(1.5)},
		{"string", "x", "x"},
		{"f32slice", []float32{1, 2}, Float32Array{1, 2}},
		{"nested", map[string]Value{"a": 1}, map[string]Value{"a": float64(1)}},
		{"list", []Value{1, "b"}, []Value{float64(1), "b"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Normalize(tt.in)
			if err != nil {
				t.Fatalf("Normalize: %v", err)
			}
			if !Identical(got, tt.want) {
				t.Errorf("Normalize(%v) = %#v, want %#v", tt.in, got, tt.want)
			}
		})
	}
	if _, err := Normalize(struct{}{}); err == nil {
		t.Error("Normalize of struct should fail")
	}
	if _, err := Normalize(map[string]Value{"bad": struct{}{}}); err == nil {
		t.Error("Normalize of nested bad value should fail")
	}
}

func TestDeepEqualAndCopy(t *testing.T) {
	v := map[string]Value{
		"n":   float64(1),
		"s":   "hello",
		"arr": []Value{true, nil, Float32Array{1.5, -2}},
	}
	cp := DeepCopy(v)
	if !Identical(v, cp) {
		t.Fatal("copy not equal")
	}
	cpMap, ok := cp.(map[string]Value)
	if !ok {
		t.Fatalf("copy has type %T", cp)
	}
	arr, ok := cpMap["arr"].([]Value)
	if !ok {
		t.Fatalf("arr copy type %T", cpMap["arr"])
	}
	fa, ok := arr[2].(Float32Array)
	if !ok {
		t.Fatalf("typed array copy type %T", arr[2])
	}
	fa[0] = 99
	orig := v["arr"].([]Value)[2].(Float32Array)
	if orig[0] == 99 {
		t.Error("DeepCopy aliases typed arrays")
	}
	if Identical(float64(1), "1") {
		t.Error("number should not equal string")
	}
	nan := Float32Array{float32(math.NaN())}
	if !Identical(nan, DeepCopy(nan)) {
		t.Error("NaN arrays should compare equal to their copies")
	}
}

// TestIdenticalComparesBits: Identical tells apart what == does not — the
// sign of a zero, at any depth.
func TestIdenticalComparesBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nested := func(z float64) Value {
		return map[string]Value{"a": []Value{z, Float32Array{1, float32(z)}}, "s": "x", "n": nil, "b": true}
	}
	if Identical(nested(0), nested(negZero)) {
		t.Error("Identical must tell -0 from +0")
	}
	if Identical(0.0, negZero) || Identical(Float32Array{0}, Float32Array{float32(negZero)}) {
		t.Error("Identical must tell -0 from +0 in a bare float and a typed array")
	}
	if !Identical(nested(negZero), DeepCopy(nested(negZero))) {
		t.Error("a value must be identical to its copy")
	}
	if Identical(nested(1), nested(2)) || Identical(float64(1), "1") {
		t.Error("Identical must still see ordinary differences")
	}
}

func TestDOMFindAppendClone(t *testing.T) {
	root := NewNode("body", "root")
	div := root.AppendChild(NewNode("div", "container"))
	div.AppendChild(NewNode("button", "btn"))
	div.AppendChild(&Node{Tag: "p", ID: "result", Text: "?"})

	if got := root.Find("btn"); got == nil || got.Tag != "button" {
		t.Fatalf("Find(btn) = %+v", got)
	}
	if got := root.Find("missing"); got != nil {
		t.Fatalf("Find(missing) = %+v, want nil", got)
	}
	clone := root.Clone()
	if !root.Equal(clone) {
		t.Fatal("clone not equal")
	}
	clone.Find("result").Text = "cat"
	if root.Find("result").Text == "cat" {
		t.Error("clone aliases original")
	}
	if root.Equal(clone) {
		t.Error("Equal should detect text change")
	}
	if got := root.CountNodes(); got != 4 {
		t.Errorf("CountNodes = %d, want 4", got)
	}
}

func TestDOMAttrs(t *testing.T) {
	n := NewNode("img", "photo")
	n.Attrs = map[string]string{"src": "cat.jpg"}
	m := n.Clone()
	m.Attrs["src"] = "dog.jpg"
	if v := n.Attrs["src"]; v != "cat.jpg" {
		t.Error("clone aliases attrs")
	}
}

func TestDOMMarshalRoundTrip(t *testing.T) {
	root := NewNode("body", "root")
	root.AppendChild(NewNode("div", "d")).Attrs = map[string]string{"class": "x"}
	data, err := MarshalDOM(root)
	if err != nil {
		t.Fatalf("MarshalDOM: %v", err)
	}
	got, err := UnmarshalDOM(data)
	if err != nil {
		t.Fatalf("UnmarshalDOM: %v", err)
	}
	if !root.Equal(got) {
		t.Error("DOM round trip mismatch")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry("app")
	if err := r.Register("h", func(*App, Event) error { return nil }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register("h", func(*App, Event) error { return nil }); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register("nil", nil); err == nil {
		t.Error("nil handler should fail")
	}
	if _, ok := r.Handler("h"); !ok {
		t.Error("Handler lookup failed")
	}
}

func TestCodeHashStability(t *testing.T) {
	mk := func(names ...string) *Registry {
		r := NewRegistry("app")
		for _, n := range names {
			r.MustRegister(n, func(*App, Event) error { return nil })
		}
		return r
	}
	a := mk("x", "y")
	b := mk("y", "x") // registration order must not matter
	if a.CodeHash() != b.CodeHash() {
		t.Error("hash should be order independent")
	}
	c := mk("x", "y", "z")
	if a.CodeHash() == c.CodeHash() {
		t.Error("different bundles should hash differently")
	}
	d := NewRegistry("other")
	d.MustRegister("x", func(*App, Event) error { return nil })
	d.MustRegister("y", func(*App, Event) error { return nil })
	if a.CodeHash() == d.CodeHash() {
		t.Error("bundle name should participate in the hash")
	}
}

func newTestApp(t *testing.T) *App {
	t.Helper()
	reg := NewRegistry("counter")
	reg.MustRegister("increment", func(app *App, ev Event) error {
		v, _ := app.Global("count")
		n, _ := v.(float64)
		return app.SetGlobal("count", n+1)
	})
	reg.MustRegister("chain", func(app *App, ev Event) error {
		app.DispatchEvent(Event{Target: "btn", Type: "click"})
		return nil
	})
	reg.MustRegister("boom", func(app *App, ev Event) error {
		return errors.New("kaput")
	})
	app, err := NewApp("app-1", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("count", 0); err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("btn", "click", "increment"); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestEventLoop(t *testing.T) {
	app := newTestApp(t)
	app.DispatchEvent(Event{Target: "btn", Type: "click"})
	app.DispatchEvent(Event{Target: "btn", Type: "click"})
	steps, err := app.Run(10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if steps != 2 {
		t.Errorf("steps = %d, want 2", steps)
	}
	v, _ := app.Global("count")
	if v != float64(2) {
		t.Errorf("count = %v, want 2", v)
	}
}

func TestUnboundEventDropped(t *testing.T) {
	app := newTestApp(t)
	app.DispatchEvent(Event{Target: "nowhere", Type: "hover"})
	if err := app.Step(); err != nil {
		t.Errorf("unbound event should be dropped, got %v", err)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	app := newTestApp(t)
	if err := app.Step(); !errors.Is(err, ErrQueueEmpty) {
		t.Errorf("Step on empty queue = %v, want ErrQueueEmpty", err)
	}
}

// TestPopEventReleasesPayload: popping reslices the queue, so the popped
// slot stays reachable through the backing array; it must be cleared, or a
// consumed load event keeps its whole image alive.
func TestPopEventReleasesPayload(t *testing.T) {
	app := newTestApp(t)
	app.DispatchEvent(Event{Target: "btn", Type: "load", Payload: make(Float32Array, 1024)})
	app.DispatchEvent(Event{Target: "btn", Type: "click"})
	slots := app.queue[:len(app.queue):len(app.queue)]
	if ev, ok := app.PopEvent(); !ok || ev.Payload == nil {
		t.Fatalf("PopEvent = %+v, %v", ev, ok)
	}
	if slots[0].Payload != nil || slots[0].Type != "" {
		t.Errorf("popped slot still holds %+v", slots[0])
	}
	if slots[1].Type != "click" {
		t.Errorf("pending slot disturbed: %+v", slots[1])
	}
}

// TestHandleLeavesQueueAlone: Handle runs the handlers of the event it is
// given — not of whatever heads the queue — and pops nothing.
func TestHandleLeavesQueueAlone(t *testing.T) {
	app := newTestApp(t)
	if err := app.AddEventListener("btn", "explode", "boom"); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(Event{Target: "btn", Type: "explode"})
	if err := app.Handle(Event{Target: "btn", Type: "click"}); err != nil {
		t.Fatalf("Handle(click) ran the queued explode event: %v", err)
	}
	if v, _ := app.Global("count"); v != float64(1) {
		t.Errorf("count = %v, want 1: click's handler did not run", v)
	}
	if ev, ok := app.PeekEvent(); !ok || ev.Type != "explode" {
		t.Errorf("queue head = %+v, %v; want the explode event untouched", ev, ok)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	app := newTestApp(t)
	if err := app.AddEventListener("btn", "explode", "boom"); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(Event{Target: "btn", Type: "explode"})
	if err := app.Step(); err == nil {
		t.Error("handler error should propagate")
	}
}

func TestHandlerDispatchChain(t *testing.T) {
	app := newTestApp(t)
	if err := app.AddEventListener("btn", "go", "chain"); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(Event{Target: "btn", Type: "go"})
	if _, err := app.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v, _ := app.Global("count"); v != float64(1) {
		t.Errorf("count = %v, want 1 (chained click)", v)
	}
}

func TestRunQuiesceLimit(t *testing.T) {
	reg := NewRegistry("infinite")
	reg.MustRegister("loop", func(app *App, ev Event) error {
		app.DispatchEvent(ev)
		return nil
	})
	app, err := NewApp("a", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("t", "tick", "loop"); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(Event{Target: "t", Type: "tick"})
	if _, err := app.Run(5); err == nil {
		t.Error("non-quiescing app should report an error")
	}
}

// TestMultipleListenersAllFire: like a browser, every listener bound to an
// event runs, in registration order.
func TestMultipleListenersAllFire(t *testing.T) {
	reg := NewRegistry("multi")
	reg.MustRegister("first", func(app *App, ev Event) error {
		v, _ := app.Global("order")
		s, _ := v.(string)
		return app.SetGlobal("order", s+"a")
	})
	reg.MustRegister("second", func(app *App, ev Event) error {
		v, _ := app.Global("order")
		s, _ := v.(string)
		return app.SetGlobal("order", s+"b")
	})
	app, err := NewApp("m", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("order", ""); err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("btn", "click", "first"); err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("btn", "click", "second"); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(Event{Target: "btn", Type: "click"})
	if err := app.Step(); err != nil {
		t.Fatal(err)
	}
	if v, _ := app.Global("order"); v != "ab" {
		t.Errorf("order = %v, want \"ab\" (both listeners, registration order)", v)
	}
}

func TestAddEventListenerUnknownHandler(t *testing.T) {
	app := newTestApp(t)
	if err := app.AddEventListener("btn", "click", "nope"); !errors.Is(err, ErrUnknownHandler) {
		t.Errorf("err = %v, want ErrUnknownHandler", err)
	}
}

func TestGlobalsSnapshotIsolation(t *testing.T) {
	app := newTestApp(t)
	if err := app.SetGlobal("arr", []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	snap := app.Globals()
	snap["arr"].(Float32Array)[0] = 42
	v, _ := app.Global("arr")
	if v.(Float32Array)[0] == 42 {
		t.Error("Globals() must deep-copy")
	}
}

func TestReplaceBindingsValidates(t *testing.T) {
	app := newTestApp(t)
	err := app.ReplaceBindings([]Binding{{Target: "x", Event: "y", Handler: "ghost"}})
	if !errors.Is(err, ErrUnknownHandler) {
		t.Errorf("err = %v, want ErrUnknownHandler", err)
	}
}

// Property: Normalize is idempotent — normalizing a normalized value is
// identical.
func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(n float64, s string, fs []float32, flag bool) bool {
		v := map[string]Value{
			"n": n, "s": s, "f": fs, "b": flag,
			"list": []Value{n, s},
		}
		once, err := Normalize(v)
		if err != nil {
			return false
		}
		twice, err := Normalize(once)
		if err != nil {
			return false
		}
		return Identical(once, twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DeepCopy always produces an Identical value, for arbitrary
// generated trees.
func TestQuickDeepCopyEqual(t *testing.T) {
	f := func(a float64, b string, c []float32, depth uint8) bool {
		var v Value = map[string]Value{"a": a, "b": b, "c": Float32Array(c)}
		for i := 0; i < int(depth%4); i++ {
			v = []Value{v, float64(i)}
		}
		return Identical(v, DeepCopy(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ExampleApp() {
	reg := NewRegistry("hello")
	reg.MustRegister("greet", func(app *App, ev Event) error {
		app.DOM().Find("out").Text = "hello, edge"
		return nil
	})
	app, _ := NewApp("demo", reg)
	app.DOM().AppendChild(NewNode("p", "out"))
	_ = app.AddEventListener("btn", "click", "greet")
	app.DispatchEvent(Event{Target: "btn", Type: "click"})
	_, _ = app.Run(1)
	fmt.Println(app.DOM().Find("out").Text)
	// Output: hello, edge
}
