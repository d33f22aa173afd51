package edge

import (
	"os"
	"path/filepath"
	"testing"

	"websnap/internal/mlapp"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

func TestModelStorePersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := newSessionStoreDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := tinyModel(t, "tiny")
	if err := store.Put("app/with:odd chars", "model name", model); err != nil {
		t.Fatalf("Put: %v", err)
	}

	// A second store on the same directory (server restart) sees it.
	restarted, err := newSessionStoreDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := restarted.Get("app/with:odd chars", "model name")
	if !ok {
		t.Fatal("model lost across restart")
	}
	if got.TotalParams() != model.TotalParams() {
		t.Errorf("params %d != %d", got.TotalParams(), model.TotalParams())
	}
	// Weights survive bit-exactly.
	a := model.Layers()[1].Params()[0].Data()
	b := got.Layers()[1].Params()[0].Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
	if names := restarted.Names("app/with:odd chars"); len(names) != 1 || names[0] != "model name" {
		t.Errorf("Names = %v", names)
	}
}

func TestModelStoreDirCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	appDir := filepath.Join(dir, "app")
	if err := os.MkdirAll(appDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(appDir, "m"+specSuffix), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newSessionStoreDir(dir, 0); err == nil {
		t.Error("corrupt spec file should fail the load")
	}
}

func TestModelStoreDirMissingWeights(t *testing.T) {
	dir := t.TempDir()
	store, err := newSessionStoreDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("a", "m", tinyModel(t, "tiny")); err != nil {
		t.Fatal(err)
	}
	// Remove the weight blob; reload must fail loudly rather than serve
	// a zeroed model.
	if err := os.Remove(filepath.Join(dir, "a", "m"+weightsSuffix)); err != nil {
		t.Fatal(err)
	}
	if _, err := newSessionStoreDir(dir, 0); err == nil {
		t.Error("missing weights should fail the load")
	}
}

// TestServerRestartKeepsModels exercises the full flow: pre-send to a
// disk-backed server, restart it, and offload WITHOUT pre-sending again.
func TestServerRestartKeepsModels(t *testing.T) {
	dir := t.TempDir()
	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 77)
	want := localResult(t, model, img)

	// First server instance: receive the model.
	_, addr1 := startServer(t, Config{Installed: true, ModelDir: dir})
	conn1 := dial(t, addr1)
	if err := conn1.PreSendModel("app-persist", "tiny", model); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server process over the same model directory.
	_, addr2 := startServer(t, Config{Installed: true, ModelDir: dir})
	app, err := mlapp.NewFullApp("app-persist", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	// The model was uploaded in an earlier session; this session ships a
	// spec-only snapshot directly and the restarted server resolves the
	// weights from disk.
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	conn2 := dial(t, addr2)
	snap, err := snapshot.Capture(app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly,
		PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resultWire, _, err := conn2.OffloadSnapshot("app-persist", wire, false)
	if err != nil {
		t.Fatalf("offload against restarted server: %v", err)
	}
	result, err := snapshot.Decode(resultWire)
	if err != nil {
		t.Fatal(err)
	}
	if err := result.ApplyTo(app, snapshot.RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := mlapp.Result(app); got != want {
		t.Errorf("result = %q, want %q", got, want)
	}
}
