package edge

import (
	"bytes"
	"math"
	"testing"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// newDeltaOffloader builds an offloader with delta offloading enabled and
// the model pre-sent.
func newDeltaOffloader(t *testing.T, addr, appID string) (*client.Offloader, *webapp.App) {
	t.Helper()
	model := tinyModel(t, "tiny")
	app, err := mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, dial(t, addr), client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
		EnableDelta:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	return off, app
}

func runInference(t *testing.T, off *client.Offloader, app *webapp.App, img webapp.Float32Array) string {
	t.Helper()
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatal(err)
	}
	res := mlapp.Result(app)
	if res == "" {
		t.Fatal("no result")
	}
	return res
}

// TestDeltaOffloadRepeated exercises the paper's §VI future work end to
// end: the first offload ships a full snapshot; subsequent offloads ship
// deltas against the state left at the server, arrive at the same results
// as full offloads, and are significantly smaller.
func TestDeltaOffloadRepeated(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	off, app := newDeltaOffloader(t, addr, "app-delta")

	model := tinyModel(t, "tiny")
	var wants []string
	for seed := uint64(1); seed <= 3; seed++ {
		wants = append(wants, localResult(t, model, mlapp.SyntheticImage(3*16*16, seed)))
	}

	// Offload 1: full snapshot (no base yet).
	got1 := runInference(t, off, app, mlapp.SyntheticImage(3*16*16, 1))
	st := off.Stats()
	if st.Offloads != 1 || st.DeltaOffloads != 0 {
		t.Fatalf("after first offload: %+v", st)
	}
	firstBytes := st.LastSnapshotBytes
	if got1 != wants[0] {
		t.Errorf("offload 1 = %q, want %q", got1, wants[0])
	}

	// Offloads 2 and 3: deltas.
	got2 := runInference(t, off, app, mlapp.SyntheticImage(3*16*16, 2))
	st = off.Stats()
	if st.DeltaOffloads != 1 {
		t.Fatalf("second offload should be a delta: %+v", st)
	}
	if got2 != wants[1] {
		t.Errorf("offload 2 = %q, want %q", got2, wants[1])
	}
	if st.LastSnapshotBytes >= firstBytes {
		t.Errorf("delta (%d B) should be smaller than the full snapshot (%d B)",
			st.LastSnapshotBytes, firstBytes)
	}

	got3 := runInference(t, off, app, mlapp.SyntheticImage(3*16*16, 3))
	st = off.Stats()
	if st.DeltaOffloads != 2 || st.DeltaFallbacks != 0 {
		t.Fatalf("after third offload: %+v", st)
	}
	if got3 != wants[2] {
		t.Errorf("offload 3 = %q, want %q", got3, wants[2])
	}
}

// TestDeltaFallbackOnServerHandoff: a delta against a server that has never
// seen this app must fall back to a full snapshot transparently.
func TestDeltaFallbackOnServerHandoff(t *testing.T) {
	_, addr1 := startServer(t, Config{Installed: true})
	_, addr2 := startServer(t, Config{Installed: true})

	off, app := newDeltaOffloader(t, addr1, "app-delta-move")
	model := tinyModel(t, "tiny")

	img1 := mlapp.SyntheticImage(3*16*16, 7)
	if got, want := runInference(t, off, app, img1), localResult(t, model, img1); got != want {
		t.Fatalf("offload 1 = %q, want %q", got, want)
	}

	// Move to a new server, keeping the same app (and its lastSync) by
	// constructing a new offloader that has inherited no server state.
	// The offloader is new, so its first offload is full — the handoff
	// fallback is exercised at the client level in the second half.
	off2, err := client.NewOffloader(app, dial(t, addr2), client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
		EnableDelta:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	off2.StartPreSend()
	if err := off2.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	img2 := mlapp.SyntheticImage(3*16*16, 8)
	if got, want := runInference(t, off2, app, img2), localResult(t, model, img2); got != want {
		t.Errorf("offload on new server = %q, want %q", got, want)
	}
	if st := off2.Stats(); st.Offloads != 1 || st.DeltaOffloads != 0 {
		t.Errorf("new-server stats = %+v", st)
	}
}

// TestDeltaFallbackOnBaseMismatch: when the state at the server no longer
// matches the client's sync point (here: another client instance with the
// same app ID overwrote it), the delta attempt is rejected server-side and
// the offloader transparently retries with a full snapshot.
func TestDeltaFallbackOnBaseMismatch(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	const appID = "app-delta-clash"
	offA, appA := newDeltaOffloader(t, addr, appID)
	model := tinyModel(t, "tiny")

	// A: full offload, then one delta to establish sync.
	runInference(t, offA, appA, mlapp.SyntheticImage(3*16*16, 11))
	runInference(t, offA, appA, mlapp.SyntheticImage(3*16*16, 12))
	if st := offA.Stats(); st.DeltaOffloads != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("warm-up stats = %+v", st)
	}

	// B: same app ID, different state — its full offload overwrites the
	// server-side state A is synced against.
	offB, appB := newDeltaOffloader(t, addr, appID)
	runInference(t, offB, appB, mlapp.SyntheticImage(3*16*16, 99))

	// A's next delta must be rejected (base mismatch), fall back to a
	// full snapshot, and still produce the right result.
	img := mlapp.SyntheticImage(3*16*16, 13)
	if got, want := runInference(t, offA, appA, img), localResult(t, model, img); got != want {
		t.Errorf("post-clash result = %q, want %q", got, want)
	}
	st := offA.Stats()
	if st.DeltaFallbacks != 1 {
		t.Errorf("stats = %+v, want 1 delta fallback", st)
	}
	// After re-sync, deltas resume.
	img2 := mlapp.SyntheticImage(3*16*16, 14)
	if got, want := runInference(t, offA, appA, img2), localResult(t, model, img2); got != want {
		t.Errorf("re-synced result = %q, want %q", got, want)
	}
	if st := offA.Stats(); st.DeltaOffloads != 2 {
		t.Errorf("stats after re-sync = %+v, want 2 delta offloads", st)
	}
}

// TestOffloadedSignOfZeroMatchesLocal: results ride home as deltas on every
// offload, so a handler whose only effect is turning +0 into −0 must still
// leave the client app bit-identical to one that ran it locally.
func TestOffloadedSignOfZeroMatchesLocal(t *testing.T) {
	reg := webapp.NewRegistry("zero-flip")
	reg.MustRegister("flip", func(app *webapp.App, _ webapp.Event) error {
		if err := app.SetGlobal("arr", webapp.Float32Array{1, float32(math.Copysign(0, -1)), 2}); err != nil {
			return err
		}
		return app.SetGlobal("num", math.Copysign(0, -1))
	})
	cat := webapp.NewCatalog()
	if err := cat.Add(reg); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Installed: true, Catalog: cat})
	newApp := func() *webapp.App {
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
		return app
	}
	ev := webapp.Event{Target: "b", Type: "go"}
	local, offloaded := newApp(), newApp()
	if err := local.Handle(ev); err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(offloaded, dial(t, addr), client.Options{OffloadEventTypes: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := off.Offload(ev); err != nil {
		t.Fatal(err)
	}
	state := func(app *webapp.App) []byte {
		snap, err := snapshot.Capture(app, snapshot.Options{})
		if err != nil {
			t.Fatal(err)
		}
		text, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	if got, want := state(offloaded), state(local); !bytes.Equal(got, want) {
		t.Errorf("offloaded state differs from local:\n got %s\nwant %s", got, want)
	}
	if num, _ := offloaded.Global("num"); !math.Signbit(num.(float64)) {
		t.Errorf("num = %v after the offload, want -0", num)
	}
}
