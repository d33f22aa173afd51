package edge

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/client"
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
			if _, err := srv.captureResult(app, true); err != nil {
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

// bigStateFloats is the size of bigStateApp's array: two GoogLeNet inputs,
// ~1.6 MB as snapshot text.
const bigStateFloats = 2 * 150528

// bigStateApp is an app whose state is one large array the offloaded handler
// never touches and a handler that writes one small global. mark receives
// the process's cumulative allocation at the moment the handler returns.
func bigStateApp(t *testing.T, appID string, mark *atomic.Uint64) (*webapp.App, *webapp.Catalog, int) {
	t.Helper()
	app, cat := arrayStateApp(t, appID, bigStateFloats, mark)
	snap, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(encoded) < 1<<20 {
		t.Fatalf("state encodes to %d B, the test wants at least 1 MB", len(encoded))
	}
	return app, cat, len(encoded)
}

// arrayStateApp is an app holding one n-float global, "image", and a handler
// ("go" on "b") that counts in the global "n" and leaves the array alone.
func arrayStateApp(t *testing.T, appID string, n int, mark *atomic.Uint64) (*webapp.App, *webapp.Catalog) {
	t.Helper()
	reg := webapp.NewRegistry("big-state")
	reg.MustRegister("work", func(app *webapp.App, _ webapp.Event) error {
		n, _ := app.Global("n")
		count, _ := n.(float64)
		err := app.SetGlobal("n", count+1)
		mark.Store(totalAlloc())
		return err
	})
	cat := webapp.NewCatalog()
	if err := cat.Add(reg); err != nil {
		t.Fatal(err)
	}
	app, err := webapp.NewApp(appID, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("b", "go", "work"); err != nil {
		t.Fatal(err)
	}
	image := make(webapp.Float32Array, n)
	for i := range image {
		image[i] = float32(i%251) / 251
	}
	if err := app.SetGlobal("image", image); err != nil {
		t.Fatal(err)
	}
	return app, cat
}

// TestRequestBodyIsArrayBitsPlusState: what a default offload ships for a
// state holding one n-float array is the rest of the state plus 16/3 bytes
// per element — the array's bits in base64, at most two characters of
// padding and nothing else — at AgeNet's 1st_pool feature size and at a
// GoogLeNet image's.
func TestRequestBodyIsArrayBitsPlusState(t *testing.T) {
	var mark atomic.Uint64
	requestBytes := func(n int) int64 {
		app, cat := arrayStateApp(t, "array-state", n, &mark)
		_, addr := startServer(t, Config{Installed: true, Catalog: cat})
		off, err := client.NewOffloader(app, dial(t, addr), client.Options{OffloadEventTypes: []string{"go"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := off.Offload(webapp.Event{Target: "b", Type: "go"}); err != nil {
			t.Fatal(err)
		}
		if got, _ := app.Global("n"); got != 1.0 {
			t.Fatalf("n = %v after one offload, want 1", got)
		}
		return off.Stats().LastSnapshotBytes
	}
	state := requestBytes(0)
	for _, n := range []int{75264, 150528} {
		if got, limit := requestBytes(n), int64(16*n/3+4)+state; got > limit {
			t.Errorf("%d floats: request body is %d B, want ≤ 16n/3 + 4 + %d B of state = %d", n, got, state, limit)
		}
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestResultDeltaCostsWhatChanged pins where the saving of a result delta
// is: on the default full-request path nothing encodes, sends, parses or
// hashes the state the handler left alone. The reply is under 1 KB for a
// state over 1 MB, the server stores nothing, and from the handler's return
// to the app holding the result the process allocates the two copies of the
// array both reply forms make — the server captures the result, the client
// copies it into the app: 8 B per value — and next to nothing else. The
// bound does not depend on what an array costs as text; the full-result
// reply (Conn.OffloadSnapshot, the previous reply of every offload), which
// also encodes, frames, reads and parses the array, allocates more over the
// same stretch whatever the text form (6.6 × while it was decimal digits,
// 3.9 × now).
func TestResultDeltaCostsWhatChanged(t *testing.T) {
	var mark atomic.Uint64
	app, cat, encodedSize := bigStateApp(t, "big-default", &mark)
	srv, addr := startServer(t, Config{Installed: true, Catalog: cat})
	conn := dial(t, addr)
	ev := webapp.Event{Target: "b", Type: "go"}

	off, err := client.NewOffloader(app, conn, client.Options{OffloadEventTypes: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	offloadDelta := func() uint64 {
		if err := off.Offload(ev); err != nil {
			t.Fatal(err)
		}
		return totalAlloc() - mark.Load()
	}
	offloadFull := func() uint64 {
		snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &ev})
		if err != nil {
			t.Fatal(err)
		}
		request, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := conn.OffloadSnapshot(app.ID(), request, false)
		if err != nil {
			t.Fatal(err)
		}
		result, err := snapshot.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := result.ApplyTo(app, snapshot.RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
		return totalAlloc() - mark.Load()
	}
	offloadDelta() // warm both paths: pools, buffers, first-use tables
	if got := srv.Metrics().StoreBytes; got != 0 {
		t.Errorf("a default session left %d B in the store", got)
	}
	offloadFull()
	delta, full := offloadDelta(), offloadFull()
	if n, _ := app.Global("n"); n != 4.0 {
		t.Fatalf("n = %v after four offloads, want 4", n)
	}
	st := off.Stats()
	if st.LastResultBytes >= 1<<10 {
		t.Errorf("reply body is %d B for a one-number change, want < 1 KB", st.LastResultBytes)
	}
	t.Logf("state %d B encoded; reply %d B; allocated after the handler: result delta %d B, full result %d B",
		encodedSize, st.LastResultBytes, delta, full)
	const copies = 2 * 4 * bigStateFloats
	if limit := uint64(copies + copies/20 + 16<<10); delta > limit {
		t.Errorf("result-delta reply allocated %d B after the handler, want two copies of the array (%d B) and at most %d B", delta, copies, limit)
	}
	if delta >= full {
		t.Errorf("result-delta reply allocated %d B after the handler, the full-result reply only %d B", delta, full)
	}
}

// TestDeltaRequestReusesStoredKey: the store keys a synced state by the
// hash a delta names its base with, so rebuilding a delta request's
// pre-execution state compares two strings and shares the unchanged values —
// it does not re-encode and re-hash the stored base, nor copy it.
func TestDeltaRequestReusesStoredKey(t *testing.T) {
	var mark atomic.Uint64
	app, cat, encodedSize := bigStateApp(t, "big-delta", &mark)
	srv, _ := startServer(t, Config{Installed: true, Catalog: cat})
	base, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key := srv.store.PutState(app.ID(), base, data)

	if err := app.SetGlobal("n", 7.0); err != nil {
		t.Fatal(err)
	}
	cur, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &webapp.Event{Target: "b", Type: "go"}})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := snapshot.Diff(base, cur, key)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := delta.Encode()
	if err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	preExec, err := srv.reconstruct(plain, "", &svcTiming{})
	allocated := totalAlloc() - before
	if err != nil {
		t.Fatal(err)
	}
	if got, err := preExec.Hash(); err != nil || got != hashOf(t, cur) {
		t.Errorf("reconstructed state hashes to %s (err %v), the client captured %s", got, err, hashOf(t, cur))
	}
	t.Logf("stored state %d B encoded, delta %d B, reconstruct allocated %d B", encodedSize, len(plain), allocated)
	if allocated*4 >= uint64(encodedSize) {
		t.Errorf("reconstruct allocated %d B against a %d B stored state: want under a quarter", allocated, encodedSize)
	}
	// A delta for another base is still refused by name.
	stale, err := snapshot.Diff(base, cur, "not-the-key")
	if err != nil {
		t.Fatal(err)
	}
	if plain, err = stale.Encode(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.reconstruct(plain, "", &svcTiming{}); !errors.Is(err, snapshot.ErrBaseMismatch) {
		t.Errorf("delta naming another base: err = %v, want ErrBaseMismatch", err)
	}
}

func hashOf(t *testing.T, s *snapshot.Snapshot) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
