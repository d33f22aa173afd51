package edge

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// seqOf peeks the stream ID every request and response header carries.
func seqOf(t *testing.T, msg protocol.Message) uint64 {
	t.Helper()
	var env protocol.MuxEnvelope
	if err := json.Unmarshal(msg.Header, &env); err != nil {
		t.Fatalf("%s header has no decodable seq: %v", msg.Type, err)
	}
	return env.Seq
}

// clickSnapshot captures app with a pending click on the inference button.
func clickSnapshot(t *testing.T, app *webapp.App, seed uint64) *snapshot.Snapshot {
	t.Helper()
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
		t.Fatal(err)
	}
	ev := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	snap, err := snapshot.Capture(app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly, PendingEvent: &ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWireContract pins the one request/response contract on every request
// type at once: the frames are pipelined on one connection without waiting
// for answers, and each response must echo its request's Seq, carry the
// server's Load and a verifying BodyCRC where it has a body. Results, chain
// results and acks always carry the server's span tree; spans of other
// processes ride exactly when the request carried a TraceID.
func TestWireContract(t *testing.T) {
	srv, addr := startHopServer(t, Config{Workers: 2})
	model := tinyModel(t, "tiny")
	const appID, traceID = "contract-app", "00c0ffee00c0ffee"

	// Set-up over a client.Conn: the model, which a fleet-joined server's
	// store also serves as a blob.
	setup := dial(t, addr)
	if _, err := setup.PreSendModel(appID, "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	// Each snapshot row is a session of its own.
	const fullAppID = appID + "-full"
	if _, err := setup.PreSendModel(fullAppID, "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	fullApp, err := mlapp.NewFullApp(fullAppID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	full, err := clickSnapshot(t, fullApp, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The row that asks for its result as a delta is the Offloader's
	// request; like every request it must leave no state behind.
	const replyAppID = appID + "-reply"
	if _, err := setup.PreSendModel(replyAppID, "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	replyApp, err := mlapp.NewFullApp(replyAppID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	replyReq, err := clickSnapshot(t, replyApp, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// An older client's synced session wrote Reply "delta+sync": it gets the
	// same result delta, and nothing is kept for it either.
	const syncAppID = appID + "-sync"
	if _, err := setup.PreSendModel(syncAppID, "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	syncApp, err := mlapp.NewFullApp(syncAppID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	syncReq, err := clickSnapshot(t, syncApp, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := nn.EncodeSpec(model)
	if err != nil {
		t.Fatal(err)
	}
	var weights bytes.Buffer
	if err := model.EncodeWeights(&weights); err != nil {
		t.Fatal(err)
	}
	blobKey := nn.Fingerprint(model)
	boundary := chainInput(t, model)
	tensorBody := protocol.Float32Bytes(boundary.Data())
	hops := []protocol.ChainHop{{Addr: addr, From: 0, To: model.NumLayers()}}

	// checkBody verifies a response body against the checksum its header
	// must carry.
	checkBody := func(t *testing.T, resp protocol.Message, sum uint32) {
		t.Helper()
		if sum == 0 {
			t.Error("response body carries no BodyCRC")
		}
		if err := protocol.VerifyBody(resp.Body, sum); err != nil {
			t.Error(err)
		}
	}
	// checkSpan holds an answer's span to the rule: always there on the
	// answers that carry one always, else exactly when traced; and on an
	// untraced request, no span of another process — which names its Addr —
	// under the root.
	checkSpan := func(t *testing.T, span *protocol.SpanNode, always, traced bool) {
		t.Helper()
		if (span != nil) != (always || traced) {
			t.Errorf("span present = %v, always = %v, request traced = %v", span != nil, always, traced)
		}
		if span == nil || traced {
			return
		}
		for _, c := range span.Children {
			if c.Addr != "" {
				t.Errorf("untraced request answered with another process's span %+v", c)
			}
		}
	}
	ack := func(traced bool) func(*testing.T, protocol.Message) {
		return func(t *testing.T, resp protocol.Message) {
			var h protocol.AckHeader
			if err := protocol.DecodeHeader(resp, &h); err != nil {
				t.Fatal(err)
			}
			if h.Load == nil || h.NeedBlob {
				t.Errorf("ack = %+v, want load and no NeedBlob", h)
			}
			checkSpan(t, h.Span, true, traced)
		}
	}
	result := func(t *testing.T, resp protocol.Message) {
		var h protocol.SnapshotHeader
		if err := protocol.DecodeHeader(resp, &h); err != nil {
			t.Fatal(err)
		}
		if h.Load == nil || h.Span == nil {
			t.Errorf("result load=%v span=%v, want both", h.Load, h.Span)
		}
		checkBody(t, resp, h.BodyCRC)
	}
	blobData := func(traced bool) func(*testing.T, protocol.Message) {
		return func(t *testing.T, resp protocol.Message) {
			var h protocol.BlobDataHeader
			if err := protocol.DecodeHeader(resp, &h); err != nil {
				t.Fatal(err)
			}
			checkBody(t, resp, h.BodyCRC)
			checkSpan(t, h.Span, false, traced)
			if traced {
				return // the span carries a measured duration
			}
			// The untraced answer is a function of the model alone: the
			// frame a peer reads is pinned byte for byte, however the
			// server came by the bytes it serves.
			var frame bytes.Buffer
			if err := protocol.Write(&frame, resp); err != nil {
				t.Fatal(err)
			}
			const wantHeader = `{"key":"b770b659f32a6542b3b82ecc","seq":107,"bodyCrc":4292833336}`
			const wantFrame = "95583f3353e2ef57da9fd31cd97f4290d0760a7ac7636d64f070d00403c5f702"
			if got := fmt.Sprintf("%x", sha256.Sum256(frame.Bytes())); string(resp.Header) != wantHeader || got != wantFrame {
				t.Errorf("MsgBlobData frame changed: header %s, sha256 %s", resp.Header, got)
			}
		}
	}
	chainResult := func(traced bool) func(*testing.T, protocol.Message) {
		return func(t *testing.T, resp protocol.Message) {
			var h protocol.ChainResultHeader
			if err := protocol.DecodeHeader(resp, &h); err != nil {
				t.Fatal(err)
			}
			if h.Load == nil {
				t.Error("chain result carries no load")
			}
			checkBody(t, resp, h.BodyCRC)
			checkSpan(t, h.Span, true, traced)
		}
	}

	modelsOnly := func(t *testing.T) {
		t.Helper()
		if got, want := srv.store.KeysMRU(), []string{nn.Fingerprint(model)}; !slices.Equal(got, want) {
			t.Errorf("store holds %v, want the one pre-sent model %v", got, want)
		}
	}
	deltaReply := func(req []byte) func(*testing.T, protocol.Message) {
		return func(t *testing.T, resp protocol.Message) {
			result(t, resp)
			// The delta names its base by the request it answers.
			got, err := snapshot.DecodeDelta(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			hdr := protocol.SnapshotHeader{Seq: seqOf(t, resp), BodyCRC: protocol.BodyChecksum(req)}
			if want := hdr.RequestBase(req); got.BaseHash != want {
				t.Errorf("result delta names base %q, the request is %q", got.BaseHash, want)
			}
			modelsOnly(t)
		}
	}

	rows := []struct {
		name   string
		typ    protocol.MsgType
		header func(seq uint64) any
		body   []byte
		want   protocol.MsgType
		check  func(*testing.T, protocol.Message)
	}{
		{"ping", protocol.MsgPing,
			func(seq uint64) any { return protocol.PingHeader{Seq: seq} }, nil,
			protocol.MsgPong, func(t *testing.T, resp protocol.Message) {
				var h protocol.PongHeader
				if err := protocol.DecodeHeader(resp, &h); err != nil {
					t.Fatal(err)
				}
				if !h.Installed || !h.Fleet || h.Load == nil {
					t.Errorf("pong = %+v, want installed, fleet and load", h)
				}
			}},
		{"pre-send", protocol.MsgModelPreSend,
			func(seq uint64) any {
				return protocol.ModelPreSendHeader{AppID: appID, ModelName: "tiny", Spec: spec, Seq: seq,
					BodyCRC: protocol.BodyChecksum(weights.Bytes())}
			}, weights.Bytes(), protocol.MsgAck, ack(false)},
		{"ref pre-send", protocol.MsgModelPreSend,
			func(seq uint64) any {
				return protocol.ModelPreSendHeader{AppID: appID, ModelName: "tiny", Spec: spec, Seq: seq,
					BlobKey: blobKey, RefOnly: true}
			}, nil, protocol.MsgAck, ack(false)},
		{"ref pre-send traced", protocol.MsgModelPreSend,
			func(seq uint64) any {
				return protocol.ModelPreSendHeader{AppID: appID, ModelName: "tiny", Spec: spec, Seq: seq,
					BlobKey: blobKey, RefOnly: true, TraceID: traceID}
			}, nil, protocol.MsgAck, ack(true)},
		{"snapshot", protocol.MsgSnapshot,
			func(seq uint64) any {
				return protocol.SnapshotHeader{AppID: fullAppID, Seq: seq, TraceID: traceID,
					BodyCRC: protocol.BodyChecksum(full)}
			}, full, protocol.MsgResultSnapshot, result},
		// The stream the request delta had. An older client's frame of the
		// retired type 8 gets one clean error under its own Seq; the rows
		// around it, pipelined on the same connection, are answered as ever.
		{"retired type 8", protocol.MsgType(8),
			func(seq uint64) any {
				return protocol.SnapshotHeader{AppID: appID, Seq: seq, BodyCRC: protocol.BodyChecksum(full)}
			}, full, protocol.MsgError, func(t *testing.T, resp protocol.Message) {
				var h protocol.ErrorHeader
				if err := protocol.DecodeHeader(resp, &h); err != nil {
					t.Fatal(err)
				}
				if h.Overloaded || !strings.Contains(h.Message, "unexpected message") {
					t.Errorf("error = %+v, want a plain unexpected-message refusal", h)
				}
			}},
		{"install", protocol.MsgInstallOverlay,
			func(seq uint64) any { return protocol.InstallOverlayHeader{BaseImage: "base", Seq: seq} },
			[]byte("overlay"), protocol.MsgInstallDone, func(*testing.T, protocol.Message) {}},
		{"blob get", protocol.MsgBlobGet,
			func(seq uint64) any { return protocol.BlobGetHeader{Key: blobKey, Seq: seq} }, nil,
			protocol.MsgBlobData, blobData(false)},
		{"blob get traced", protocol.MsgBlobGet,
			func(seq uint64) any { return protocol.BlobGetHeader{Key: blobKey, Seq: seq, TraceID: traceID} }, nil,
			protocol.MsgBlobData, blobData(true)},
		{"chain exec", protocol.MsgChainExec,
			func(seq uint64) any {
				return protocol.ChainExecHeader{AppID: appID, ModelName: "tiny", Seq: seq, Hops: hops,
					Shape: boundary.Shape(), BodyCRC: protocol.BodyChecksum(tensorBody)}
			}, tensorBody, protocol.MsgChainResult, chainResult(false)},
		{"chain exec traced", protocol.MsgChainExec,
			func(seq uint64) any {
				return protocol.ChainExecHeader{AppID: appID, ModelName: "tiny", Seq: seq, Hops: hops,
					Shape: boundary.Shape(), TraceID: traceID, BodyCRC: protocol.BodyChecksum(tensorBody)}
			}, tensorBody, protocol.MsgChainResult, chainResult(true)},
		// Appended, so the streams of the rows above — and the pinned
		// MsgBlobData frame among them — keep the Seqs they always had.
		{"snapshot delta reply", protocol.MsgSnapshot,
			func(seq uint64) any {
				return protocol.SnapshotHeader{AppID: replyAppID, Seq: seq, Reply: protocol.ReplyDelta,
					BodyCRC: protocol.BodyChecksum(replyReq)}
			}, replyReq, protocol.MsgResultDelta, deltaReply(replyReq)},
		{"snapshot delta+sync reply", protocol.MsgSnapshot,
			func(seq uint64) any {
				return protocol.SnapshotHeader{AppID: syncAppID, Seq: seq, Reply: "delta+sync",
					BodyCRC: protocol.BodyChecksum(syncReq)}
			}, syncReq, protocol.MsgResultDelta, deltaReply(syncReq)},
		// An older client marked a rear-only pre-send "partial":true; the key
		// is unknown now, and the pre-send is stored and ACKed like any other.
		{"pre-send with retired partial flag", protocol.MsgModelPreSend,
			func(seq uint64) any {
				return struct {
					protocol.ModelPreSendHeader
					Partial bool `json:"partial"`
				}{protocol.ModelPreSendHeader{AppID: appID, ModelName: "tiny", Spec: spec, Seq: seq,
					BodyCRC: protocol.BodyChecksum(weights.Bytes())}, true}
			}, weights.Bytes(), protocol.MsgAck, ack(false)},
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	const seqBase = 100
	wrote := make(chan error, 1)
	go func() {
		for i, row := range rows {
			req, err := protocol.Encode(row.typ, row.header(uint64(seqBase+i)), row.body)
			if err == nil {
				err = protocol.Write(raw, req)
			}
			if err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	responses := make(map[uint64]protocol.Message)
	for range rows {
		resp, err := protocol.Read(raw)
		if err != nil {
			t.Fatalf("after %d responses: %v", len(responses), err)
		}
		seq := seqOf(t, resp)
		if _, dup := responses[seq]; dup {
			t.Fatalf("two responses for stream %d", seq)
		}
		responses[seq] = resp
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			resp, ok := responses[uint64(seqBase+i)]
			if !ok {
				t.Fatalf("no response echoed seq %d", seqBase+i)
			}
			if resp.Type != row.want {
				t.Fatalf("response type = %s (%s), want %s", resp.Type, resp.Header, row.want)
			}
			row.check(t, resp)
		})
	}
}

// TestUndecodableHeaderBreaksClientConn pins the failure half of the
// contract end to end: every client.Conn method shares one connection
// concurrently; a request header the server cannot decode is answered with
// an error frame for no stream, which the client takes as the connection
// being desynced — every pending stream fails with ErrConnBroken carrying
// the server's complaint — and Close joins the reader. The transport is an
// in-memory pipe so the leak check sees the reader goroutine.
func TestUndecodableHeaderBreaksClientConn(t *testing.T) {
	testutil.LeakCheck(t)
	srv, _ := startHopServer(t, Config{Workers: 2})
	clientSide, serverSide := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer serverSide.Close()
		srv.handleConn(serverSide)
	}()
	conn := client.NewConn(clientSide)
	conn.SetRequestTimeout(30 * time.Second)

	model := tinyModel(t, "tiny")
	const appID = "contract-client"
	if _, err := conn.PreSendModel(appID, "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := clickSnapshot(t, app, 3).Encode()
	if err != nil {
		t.Fatal(err)
	}
	boundary := chainInput(t, model)
	other := tinyModel(t, "other")
	calls := map[string]func() error{
		"ping": func() error { _, _, err := conn.Ping(); return err },
		"pre-send, held": func() error {
			ps, err := conn.PreSendModel(appID, "tiny", model, "")
			if err == nil && ps.Uploaded != 0 {
				err = errors.New("server holds the model but took its weights again")
			}
			return err
		},
		"pre-send, new": func() error {
			ps, err := conn.PreSendModel(appID, "other", other, "")
			if err == nil && ps.Uploaded == 0 {
				err = errors.New("server answered for a model it never saw")
			}
			return err
		},
		"snapshot": func() error { _, _, err := conn.OffloadSnapshot(appID, encoded, true); return err },
		"install":  func() error { _, err := conn.InstallOverlay("base", []byte("overlay")); return err },
		"chain exec": func() error {
			hops := []protocol.ChainHop{{Addr: "unused", From: 0, To: model.NumLayers()}}
			_, err := conn.ChainExec(appID, "tiny", hops, boundary, "")
			return err
		},
	}
	var wg sync.WaitGroup
	for name, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(); err != nil {
				t.Errorf("%s over the shared conn: %v", name, err)
			}
		}()
	}
	wg.Wait()

	// Park one stream: a two-hop chain whose second hop accepts the relay
	// and never answers.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	relayed := make(chan net.Conn, 1)
	go func() {
		if c, err := hole.Accept(); err == nil {
			relayed <- c
		}
	}()
	n := model.NumLayers()
	parked := make(chan error, 1)
	go func() {
		hops := []protocol.ChainHop{{Addr: "unused", From: 0, To: n - 1}, {Addr: hole.Addr().String(), From: n - 1, To: n}}
		_, err := conn.ChainExec(appID, "tiny", hops, boundary, "")
		parked <- err
	}()
	relay := <-relayed
	defer relay.Close() // unparks the server's relay so it can shut down

	// The client's writer is idle while its stream is parked, so the test
	// may write a frame of its own onto the shared transport.
	if err := protocol.Write(clientSide, protocol.Message{Type: protocol.MsgPing, Header: []byte(`{"seq":`)}); err != nil {
		t.Fatal(err)
	}
	err = <-parked
	if !errors.Is(err, client.ErrConnBroken) || !errors.Is(err, client.ErrServerError) {
		t.Fatalf("parked stream failed with %v, want ErrConnBroken wrapping the server's error", err)
	}
	if !strings.Contains(err.Error(), "unmarshal") {
		t.Errorf("error %q lost the server's complaint about the header", err)
	}
	if !conn.Broken() {
		t.Error("conn not marked broken")
	}
	if _, _, err := conn.Ping(); !errors.Is(err, client.ErrConnBroken) {
		t.Errorf("ping on the broken conn: %v, want fail-fast ErrConnBroken", err)
	}
	conn.Close()
	relay.Close()
	<-served
}

// FuzzMuxEnvelope feeds arbitrary header bytes through the server's
// envelope peek: whatever the bytes are, the frame must not panic the
// server, must be dispatched only while holding a stream slot, must be
// answered with exactly one frame echoing whatever seq the peek recovered,
// and must give the slot back. Model pre-sends are left out: their handler
// builds a network from the header, which FuzzModelPreSend covers.
func FuzzMuxEnvelope(f *testing.F) {
	f.Add(uint8(protocol.MsgPing), []byte(`{"seq":7}`))
	f.Add(uint8(protocol.MsgPing), []byte(`{"seq":"seven"}`))
	f.Add(uint8(protocol.MsgSnapshot), []byte(`{"seq":18446744073709551615,"appId":"a"}`))
	f.Add(uint8(8), []byte(`{"seq":3,"seq":"x"}`)) // the retired request-delta type
	f.Add(uint8(protocol.MsgChainExec), []byte(`{"seq":1,"hop":0,"hops":[{"addr":"x","from":0,"to":-1}],"shape":[4294967296,4294967296]}`))
	f.Add(uint8(protocol.MsgBlobGet), []byte(`{`))
	f.Add(uint8(protocol.MsgInstallOverlay), []byte(nil))
	f.Add(uint8(protocol.MsgPong), []byte(`[1,2,3]`))
	f.Add(uint8(0), []byte(`{"seq":-1}`))

	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(Config{Catalog: cat, Installed: true, AdvertiseAddr: "fuzz:0"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, typ uint8, header []byte) {
		if protocol.MsgType(typ) == protocol.MsgModelPreSend {
			return
		}
		clientSide, serverSide := net.Pipe()
		defer clientSide.Close()
		defer serverSide.Close()
		slots := make(chan struct{}, 1)
		var streams sync.WaitGroup
		msg := protocol.Message{Type: protocol.MsgType(typ), Header: header}
		srv.dispatchStream(serverSide, protocol.NewWriter(serverSide), slots, &streams, srv.newRequest(msg))
		// The handler cannot finish before its response is read off the
		// unbuffered pipe, so it must be holding the slot right now.
		if len(slots) != 1 {
			t.Fatal("request dispatched without holding a stream slot")
		}
		resp, err := protocol.Read(clientSide)
		if err != nil {
			t.Fatalf("no response frame: %v", err)
		}
		var want, got protocol.MuxEnvelope
		_ = json.Unmarshal(header, &want) // whatever the server's peek recovered
		if err := json.Unmarshal(resp.Header, &got); err != nil {
			t.Fatalf("undecodable response header %q: %v", resp.Header, err)
		}
		if got.Seq != want.Seq {
			t.Fatalf("response seq %d, request seq %d", got.Seq, want.Seq)
		}
		streams.Wait()
		if len(slots) != 0 {
			t.Fatal("stream slot not released")
		}
	})
}
