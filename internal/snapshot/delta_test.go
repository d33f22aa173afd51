package snapshot

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"websnap/internal/webapp"
)

func capture(t *testing.T, app *webapp.App) *Snapshot {
	t.Helper()
	snap, err := Capture(app, Options{DefaultModelPolicy: ModelOmit})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// hashOf is the identity these tests name a base by: its content hash, what
// the edge server's store keys a synced state with.
func hashOf(t testing.TB, s *Snapshot) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDiffApplyRoundTrip: for arbitrary mutations between two captures,
// Apply(base, Diff(base, cur, hashOf(t, base))) must reproduce cur exactly.
func TestDiffApplyRoundTrip(t *testing.T) {
	app, _ := inferenceApp(t)
	base := capture(t, app)

	// Mutate: change a global, add one, remove one, touch the DOM,
	// enqueue an event.
	if err := app.SetGlobal("image", webapp.Float32Array{9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("newFlag", true); err != nil {
		t.Fatal(err)
	}
	cur := capture(t, app)
	delete(cur.Globals, "scores") // simulate a removed global
	cur.DOM.Find("result").Text = "changed"
	cur.Pending = append(cur.Pending, webapp.Event{Target: "btn", Type: "click"})

	d, err := Diff(base, cur, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(base, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if got.AppID != cur.AppID || got.CodeHash != cur.CodeHash {
		t.Error("identity fields wrong")
	}
	if len(got.Globals) != len(cur.Globals) {
		t.Fatalf("globals %d != %d", len(got.Globals), len(cur.Globals))
	}
	for name, v := range cur.Globals {
		if !webapp.DeepEqual(got.Globals[name], v) {
			t.Errorf("global %q differs", name)
		}
	}
	if !got.DOM.Equal(cur.DOM) {
		t.Error("DOM differs")
	}
	if len(got.Pending) != 1 || got.Pending[0].Type != "click" {
		t.Errorf("pending = %+v", got.Pending)
	}
	gh, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cur.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if gh != ch {
		t.Error("reconstructed snapshot hash differs from original")
	}
}

func TestDiffIsMinimal(t *testing.T) {
	app, _ := inferenceApp(t)
	base := capture(t, app)
	cur := capture(t, app)
	d, err := Diff(base, cur, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SetGlobals) != 0 || len(d.DelGlobals) != 0 || d.DOM != nil || d.BindingsChanged {
		t.Errorf("no-op diff carries state: %+v", d)
	}

	if err := app.SetGlobal("counter", 1.0); err != nil {
		t.Fatal(err)
	}
	cur2 := capture(t, app)
	d2, err := Diff(base, cur2, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.SetGlobals) != 1 {
		t.Errorf("single-global change carries %d globals", len(d2.SetGlobals))
	}
	if d2.DOM != nil {
		t.Error("unchanged DOM must be omitted")
	}
}

// TestDeltaMuchSmallerThanSnapshot pins the extension's purpose: a small
// state change after a large first snapshot ships a tiny delta.
func TestDeltaMuchSmallerThanSnapshot(t *testing.T) {
	app, _ := inferenceApp(t)
	// Make the heap big: a large feature array.
	big := make(webapp.Float32Array, 50000)
	for i := range big {
		big[i] = float32(i%97) / 97
	}
	if err := app.SetGlobal("bigFeature", big); err != nil {
		t.Fatal(err)
	}
	base := capture(t, app)
	baseWire, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}

	if err := app.SetGlobal("counter", 42.0); err != nil {
		t.Fatal(err)
	}
	cur := capture(t, app)
	d, err := Diff(base, cur, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	deltaWire, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(deltaWire))*20 > int64(len(baseWire)) {
		t.Errorf("delta %d B not ≪ snapshot %d B", len(deltaWire), len(baseWire))
	}
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	app, _ := inferenceApp(t)
	if err := app.SetGlobal("doomed", "bye"); err != nil {
		t.Fatal(err)
	}
	base := capture(t, app)
	if err := app.SetGlobal("image", webapp.Float32Array{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	app.DOM().Find("result").Text = "dog"
	cur := capture(t, app)
	delete(cur.Globals, "doomed")
	cur.Pending = []webapp.Event{{Target: "btn", Type: "go", Payload: "x"}}

	d, err := Diff(base, cur, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppID != d.AppID || got.CodeHash != d.CodeHash || got.BaseHash != d.BaseHash {
		t.Error("identity fields corrupted")
	}
	if len(got.SetGlobals) != len(d.SetGlobals) {
		t.Fatalf("set globals %d != %d", len(got.SetGlobals), len(d.SetGlobals))
	}
	for name, v := range d.SetGlobals {
		if !webapp.DeepEqual(got.SetGlobals[name], v) {
			t.Errorf("global %q corrupted", name)
		}
	}
	if len(got.DelGlobals) != 1 || got.DelGlobals[0] != "doomed" {
		t.Errorf("deletes = %v", got.DelGlobals)
	}
	if got.DOM == nil || !got.DOM.Equal(d.DOM) {
		t.Error("DOM corrupted")
	}
	if len(got.Pending) != 1 || got.Pending[0].Payload != "x" {
		t.Errorf("pending = %+v", got.Pending)
	}

	// The decoded delta must apply identically.
	a1, err := d.Apply(base, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := got.Apply(base, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := a1.Hash()
	h2, _ := a2.Hash()
	if h1 != h2 {
		t.Error("decoded delta applies differently")
	}
}

func TestApplyBaseMismatch(t *testing.T) {
	app, _ := inferenceApp(t)
	base := capture(t, app)
	if err := app.SetGlobal("x", 1.0); err != nil {
		t.Fatal(err)
	}
	cur := capture(t, app)
	d, err := Diff(base, cur, hashOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("x", 2.0); err != nil {
		t.Fatal(err)
	}
	otherBase := capture(t, app)
	if _, err := d.Apply(otherBase, hashOf(t, otherBase)); !errors.Is(err, ErrBaseMismatch) {
		t.Errorf("err = %v, want ErrBaseMismatch", err)
	}
}

func TestDiffAcrossAppsFails(t *testing.T) {
	app, _ := inferenceApp(t)
	base := capture(t, app)
	other := *base
	other.AppID = "someone-else"
	if _, err := Diff(base, &other, ""); err == nil {
		t.Error("cross-app diff should fail")
	}
}

func TestHashIgnoresModels(t *testing.T) {
	app, _ := inferenceApp(t)
	withModels, err := Capture(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withoutModels, err := Capture(app, Options{DefaultModelPolicy: ModelOmit})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := withModels.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := withoutModels.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("hash must cover state, not model placement")
	}
}

func TestDecodeDeltaCorrupt(t *testing.T) {
	tests := [][]byte{
		nil,
		[]byte("// wrong header\n"),
		[]byte(deltaHeader + "\nmeow;\n"),
		[]byte(deltaHeader + "\nvar __appID = \"a\";\n"), // missing hashes
	}
	for i, data := range tests {
		if _, err := DecodeDelta(data); err == nil {
			t.Errorf("case %d decoded without error", i)
		}
	}
}

// Property: diff/apply round-trips for arbitrary single-global changes.
func TestQuickDiffApply(t *testing.T) {
	app, _ := inferenceApp(t)
	base := capture(t, app)
	f := func(val float64, s string, fs []float32) bool {
		cur := *base
		cur.Globals = make(map[string]webapp.Value, len(base.Globals)+1)
		for k, v := range base.Globals {
			cur.Globals[k] = v
		}
		v, err := webapp.Normalize(map[string]webapp.Value{"n": val, "s": s, "f": fs})
		if err != nil {
			return false
		}
		cur.Globals["mut"] = v
		d, err := Diff(base, &cur, hashOf(t, base))
		if err != nil {
			return false
		}
		wire, err := d.Encode()
		if err != nil {
			return false
		}
		dd, err := DecodeDelta(wire)
		if err != nil {
			return false
		}
		got, err := dd.Apply(base, hashOf(t, base))
		if err != nil {
			return false
		}
		return webapp.DeepEqual(got.Globals["mut"], v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDiffSeesSignOfZero: a handler whose only effect is flipping the sign
// of a zero has changed the state — the snapshot text round-trips −0 — so a
// delta must carry it. Comparing with == (webapp.DeepEqual) drops both
// globals and the patched state silently keeps +0.
func TestDiffSeesSignOfZero(t *testing.T) {
	reg := webapp.NewRegistry("zero-flip")
	reg.MustRegister("flip", func(app *webapp.App, _ webapp.Event) error {
		arr, _ := app.Global("arr")
		flipped := append(webapp.Float32Array(nil), arr.(webapp.Float32Array)...)
		flipped[1] = float32(math.Copysign(0, -1))
		if err := app.SetGlobal("arr", flipped); err != nil {
			return err
		}
		return app.SetGlobal("num", math.Copysign(0, -1))
	})
	app, err := webapp.NewApp("zero", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("b", "go", "flip"); err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("arr", webapp.Float32Array{1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := app.SetGlobal("num", 0.0); err != nil {
		t.Fatal(err)
	}
	base := capture(t, app)
	if err := app.Handle(webapp.Event{Target: "b", Type: "go"}); err != nil {
		t.Fatal(err)
	}
	cur := capture(t, app)

	d, err := Diff(base, cur, "base")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SetGlobals) != 2 {
		t.Fatalf("delta carries %d globals, want arr and num: %v", len(d.SetGlobals), d.SetGlobals)
	}
	wire, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeDelta(wire)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := decoded.Apply(base, "base")
	if err != nil {
		t.Fatal(err)
	}
	got, err := patched.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cur.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("delta path lost the sign of zero:\n got %s\nwant %s", got, want)
	}
	if arr := patched.Globals["arr"].(webapp.Float32Array); !math.Signbit(float64(arr[1])) {
		t.Errorf("arr[1] = %v, want -0", arr[1])
	}
}

// largeUnchanged is the shape of a GoogLeNet result: a 150,528-float input
// image the handler did not touch and a 1000-float score vector it wrote.
func largeUnchanged(tb testing.TB) (base, cur *Snapshot) {
	tb.Helper()
	app, err := webapp.NewApp("large", webapp.NewRegistry("large"))
	if err != nil {
		tb.Fatal(err)
	}
	image := make(webapp.Float32Array, 150528)
	for i := range image {
		image[i] = float32(i%251) / 251
	}
	if err := app.SetGlobal("image", image); err != nil {
		tb.Fatal(err)
	}
	snap := func() *Snapshot {
		s, err := Capture(app, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	base = snap()
	scores := make(webapp.Float32Array, 1000)
	for i := range scores {
		scores[i] = float32(i) / 1000
	}
	if err := app.SetGlobal("scores", scores); err != nil {
		tb.Fatal(err)
	}
	return base, snap()
}

// BenchmarkDiffLargeUnchanged: diffing costs a compare of the unchanged
// state, never an encode or a hash of it.
func BenchmarkDiffLargeUnchanged(b *testing.B) {
	base, cur := largeUnchanged(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Diff(base, cur, "base")
		if err != nil || len(d.SetGlobals) != 1 {
			b.Fatalf("delta %+v, err %v", d, err)
		}
	}
}

// BenchmarkPatchLargeUnchanged: patching a delta into its base shares the
// unchanged image instead of copying it.
func BenchmarkPatchLargeUnchanged(b *testing.B) {
	base, cur := largeUnchanged(b)
	d, err := Diff(base, cur, "base")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.Apply(base, "base")
		if err != nil || len(out.Globals) != 2 {
			b.Fatalf("patched %+v, err %v", out, err)
		}
	}
}
