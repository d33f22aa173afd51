package edge

import (
	"bytes"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// TestResultEncodeFailureFailsRequest: a handler that leaves state with no
// text form (a NaN) fails that request — solo and coalesced — and leaves the
// server serving, its store as empty as it was.
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
	if n := srv.store.Entries(); n != 0 {
		t.Errorf("a model-less app's offloads left %d store entries", n)
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

// TestReplyPackedOnlyWhenItPays: the reply mirrors a packed request's
// encoding only when its own body is more than a segment's worth — the
// 400 KB full result of the raw API is, the few hundred bytes of a result
// delta are not, and a codec pass over them could not change their wire
// time. A raw request is always answered raw. Every answer says the server
// decodes packed bodies, and a packed body whose declared length is wrong,
// missing or beyond MaxBodyLen is refused with an error frame.
func TestReplyPackedOnlyWhenItPays(t *testing.T) {
	var mark atomic.Uint64
	app, cat := arrayStateApp(t, "reply-rule", 75264, &mark)
	_, addr := startServer(t, Config{Installed: true, Catalog: cat})
	snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &webapp.Event{Target: "b", Type: "go"}})
	if err != nil {
		t.Fatal(err)
	}
	text, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	packed, ok, err := protocol.CompressBody(nil, text, snapshot.Pack)
	if err != nil || !ok {
		t.Fatalf("CompressBody: ok %v, err %v", ok, err)
	}
	rw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	seq := uint64(0)
	ask := func(body []byte, encoding string, plainLen int64, reply string) (protocol.Message, protocol.SnapshotHeader) {
		t.Helper()
		seq++
		req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
			AppID: app.ID(), Seq: seq, Encoding: encoding, PlainLen: plainLen, Reply: reply,
			BodyCRC: protocol.BodyChecksum(body),
		}, body)
		if err != nil {
			t.Fatal(err)
		}
		if err := protocol.Write(rw, req); err != nil {
			t.Fatal(err)
		}
		resp, err := protocol.Read(rw)
		if err != nil {
			t.Fatal(err)
		}
		var hdr protocol.SnapshotHeader
		if resp.Type != protocol.MsgError {
			if err := protocol.DecodeHeader(resp, &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.Hints&protocol.HintPackedBody == 0 {
				t.Errorf("%s answer does not carry HintPackedBody", resp.Type)
			}
		}
		return resp, hdr
	}

	resp, hdr := ask(packed, protocol.EncodingPacked, int64(len(text)), protocol.ReplyDelta)
	if resp.Type != protocol.MsgResultDelta || hdr.Encoding != protocol.EncodingRaw || hdr.PlainLen != 0 || len(resp.Body) >= packedReplyMin {
		t.Errorf("delta reply to a packed request: %s, encoding %q, %d B; want a raw result delta under %d B",
			resp.Type, hdr.Encoding, len(resp.Body), packedReplyMin)
	}
	if _, err := snapshot.DecodeDelta(resp.Body); err != nil {
		t.Errorf("delta reply: %v", err)
	}

	resp, hdr = ask(packed, protocol.EncodingPacked, int64(len(text)), "")
	if resp.Type != protocol.MsgResultSnapshot || hdr.Encoding != protocol.EncodingPacked || 2*len(resp.Body) > len(text) {
		t.Errorf("full reply to a packed request: %s, encoding %q, %d B for a %d B request text; want it packed",
			resp.Type, hdr.Encoding, len(resp.Body), len(text))
	}
	plain, err := protocol.DecodeBody(resp.Body, hdr.Encoding, hdr.PlainLen, snapshot.Unpack)
	if err != nil {
		t.Fatal(err)
	}
	result, err := snapshot.Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	if n := result.Globals["n"]; n != 1.0 {
		t.Errorf("n = %v in the packed full result, want 1", n)
	}

	if resp, hdr = ask(text, protocol.EncodingRaw, 0, ""); resp.Type != protocol.MsgResultSnapshot || hdr.Encoding != protocol.EncodingRaw {
		t.Errorf("full reply to a raw request: %s, encoding %q; want raw", resp.Type, hdr.Encoding)
	}

	for name, plainLen := range map[string]int64{
		"no declared length":  0,
		"one byte short":      int64(len(text)) - 1,
		"one byte long":       int64(len(text)) + 1,
		"beyond MaxBodyLen":   protocol.MaxBodyLen + 1,
		"a negative length":   -1,
		"a tenth of the text": int64(len(text)) / 10,
	} {
		if resp, _ := ask(packed, protocol.EncodingPacked, plainLen, ""); resp.Type != protocol.MsgError {
			t.Errorf("%s: answered %s, want an error frame", name, resp.Type)
		}
	}
	if resp, _ := ask(packed, "flate", int64(len(text)), ""); resp.Type != protocol.MsgError {
		t.Errorf("the retired flate encoding: answered %s, want an error frame", resp.Type)
	}
}
