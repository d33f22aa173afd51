package edge

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/mlapp"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// storedState returns the content key and byte charge of appID's synced
// state.
func storedState(s *Server, appID string) (key string, size int64, ok bool) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	key, ok = s.store.states[appID]
	if ok {
		size = s.store.entries[key].size
	}
	return key, size, ok
}

// TestResultBodyIsStoredState pins the single result encode: the bytes a
// full offload answers with are the stored state's charge and — under
// their own hash — its content key and the fleet blob.
func TestResultBodyIsStoredState(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true, AdvertiseAddr: "self:0"})
	model := tinyModel(t, "tiny")
	const appID = "one-encode"
	conn := dial(t, addr)
	if err := conn.PreSendModel(appID, "tiny", model, false); err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	request, err := clickSnapshot(t, app, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := conn.OffloadSnapshot(appID, request, false)
	if err != nil {
		t.Fatal(err)
	}

	key, size, ok := storedState(srv, appID)
	if !ok {
		t.Fatal("offload left no synced state")
	}
	if want := snapshot.HashEncoded(body); key != want {
		t.Errorf("state key %s is not the response body's hash %s", key, want)
	}
	if size != int64(len(body)) {
		t.Errorf("state charged %d B, response body is %d B", size, len(body))
	}
	if blob, ok := srv.store.Blob(key); !ok || !bytes.Equal(blob, body) {
		t.Errorf("fleet blob %s is not the response body (held %v)", key, ok)
	}
	// The key is also what a client derives from the decoded result, so
	// its next delta names this state.
	result, err := snapshot.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if hash, err := result.Hash(); err != nil || hash != key {
		t.Errorf("decoded result hashes to %s (err %v), state key is %s", hash, err, key)
	}
}

// TestFleetStateSharesResultBytes pins that a fleet-joined server keeps no
// second copy of a synced state: the response body of a full offload, the
// bytes the store retains for the state and the body of the MsgBlobGet
// answer for its key are one backing array, and storing a result allocates
// what it does on a standalone server, which retains no encoded bytes at
// all.
func TestFleetStateSharesResultBytes(t *testing.T) {
	fleet, _ := startServer(t, Config{Installed: true, AdvertiseAddr: "self:0"})
	standalone, _ := startServer(t, Config{Installed: true})
	model := tinyModel(t, "tiny")
	const appID = "one-copy"
	if err := fleet.store.Put(appID, "tiny", model); err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	request, err := clickSnapshot(t, app, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The handlers are called in process: across a socket every slice is a
	// copy and identity says nothing.
	req, err := protocol.Encode(protocol.MsgSnapshot,
		protocol.SnapshotHeader{AppID: appID, BodyCRC: protocol.BodyChecksum(request)}, request)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fleet.handleOffload(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, _, ok := storedState(fleet, appID)
	if !ok {
		t.Fatal("offload left no synced state")
	}
	stored, ok := fleet.store.Blob(key)
	if !ok {
		t.Fatalf("fleet-joined store retains no bytes for state %s", key)
	}
	get, err := protocol.Encode(protocol.MsgBlobGet, protocol.BlobGetHeader{Key: key}, nil)
	if err != nil {
		t.Fatal(err)
	}
	served, err := fleet.handleBlobGet(get)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }
	if !same(resp.Body, stored) {
		t.Error("stored state bytes are a copy of the response body")
	}
	if !same(stored, served.Body) {
		t.Error("MsgBlobGet answered with a copy of the stored state bytes")
	}

	// Each run stores a state the store has not seen (the global differs),
	// so it creates an entry and compacts the previous one.
	n := 0.0
	capture := func(srv *Server) func() {
		return func() {
			n++
			if err := app.SetGlobal("n", n); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.captureResult(app); err != nil {
				t.Fatal(err)
			}
		}
	}
	inFleet := testing.AllocsPerRun(50, capture(fleet))
	alone := testing.AllocsPerRun(50, capture(standalone))
	if inFleet > alone+2 {
		t.Errorf("captureResult allocates %.0f times per result in fleet mode, %.0f standalone", inFleet, alone)
	}
	key, _, ok = storedState(standalone, appID)
	if !ok {
		t.Fatal("standalone captures stored no state; the comparison is vacuous")
	}
	if blob, ok := standalone.store.Blob(key); ok {
		t.Errorf("standalone store retains %d encoded bytes for its state", len(blob))
	}
}

// TestResultEncodeFailureFailsRequest: a handler that leaves state with no
// text form (a NaN) fails that request — solo and coalesced — stores
// nothing for the app, and leaves the server serving.
func TestResultEncodeFailureFailsRequest(t *testing.T) {
	poison := func(app *webapp.App) error { return app.SetGlobal("score", math.NaN()) }
	reg := webapp.NewRegistry("nan-app")
	reg.MustRegister("poison", func(app *webapp.App, _ webapp.Event) error { return poison(app) })
	reg.MustRegisterBatch("poison", func(apps []*webapp.App, _ []webapp.Event) error {
		for _, app := range apps {
			if err := poison(app); err != nil {
				return err
			}
		}
		return nil
	})
	reg.MustRegister("fine", func(app *webapp.App, _ webapp.Event) error { return app.SetGlobal("score", 1.0) })
	cat := webapp.NewCatalog()
	if err := cat.Add(reg); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		Installed: true, Catalog: cat,
		Workers: 1, MaxBatch: 2, BatchWindow: 200 * time.Millisecond,
	})

	offload := func(appID, event string) error {
		app, err := webapp.NewApp(appID, reg)
		if err != nil {
			return err
		}
		if err := app.AddEventListener("b", "bad", "poison"); err != nil {
			return err
		}
		if err := app.AddEventListener("b", "good", "fine"); err != nil {
			return err
		}
		snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &webapp.Event{Target: "b", Type: event}})
		if err != nil {
			return err
		}
		request, err := snap.Encode()
		if err != nil {
			return err
		}
		_, _, err = dial(t, addr).OffloadSnapshot(appID, request, false)
		return err
	}
	wantEncodeError := func(appID string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "encode result") {
			t.Errorf("%s: err = %v, want the result-encode failure", appID, err)
		}
		if _, _, ok := storedState(srv, appID); ok {
			t.Errorf("%s: an unencodable result was stored as synced state", appID)
		}
	}

	wantEncodeError("solo", offload("solo", "bad"))

	ids := []string{"batched-a", "batched-b"}
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			errs[i] = offload(id, "bad")
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		wantEncodeError(id, errs[i])
	}
	if st := srv.SchedStats(); st.BatchedTasks < 2 {
		t.Errorf("batched tasks = %d: the coalesced path was not exercised", st.BatchedTasks)
	}

	if err := offload("healthy", "good"); err != nil {
		t.Errorf("server stopped serving after encode failures: %v", err)
	}
	if _, _, ok := storedState(srv, "healthy"); !ok {
		t.Error("a good offload after the failures stored no state")
	}
}
