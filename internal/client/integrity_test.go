package client

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// snapshotServer answers each snapshot request via respond, which receives
// the decoded request header and returns the response to write.
func snapshotServer(t *testing.T, respond func(req protocol.SnapshotHeader) protocol.Message) *Conn {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	go func() {
		defer serverSide.Close()
		for {
			msg, err := protocol.Read(serverSide)
			if err != nil {
				return
			}
			var req protocol.SnapshotHeader
			if err := protocol.DecodeHeader(msg, &req); err != nil {
				return
			}
			if err := protocol.Write(serverSide, respond(req)); err != nil {
				return
			}
		}
	}()
	conn := NewConn(clientSide)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestResponseSeqMismatchBreaksConn is a regression test: a response whose
// Seq belongs to a different request means the frame stream has slipped
// (e.g. a stale response surfacing after a fault), so the result must be
// rejected with ErrConnBroken and the connection marked broken.
func TestResponseSeqMismatchBreaksConn(t *testing.T) {
	conn := snapshotServer(t, func(req protocol.SnapshotHeader) protocol.Message {
		msg, _ := protocol.Encode(protocol.MsgResultSnapshot, protocol.SnapshotHeader{
			AppID: req.AppID, Seq: req.Seq + 1,
		}, []byte("// stale result"))
		return msg
	})
	_, _, err := conn.OffloadSnapshot("a", []byte("// snap"), false)
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("err = %v, want ErrConnBroken", err)
	}
	if !conn.Broken() {
		t.Error("conn not marked broken after seq mismatch")
	}
}

// TestCorruptedResultBodyTypedError is a regression test: a result whose
// body does not match its header checksum must surface protocol.ErrChecksum
// instead of being applied, and — the frame being complete — must NOT break
// the connection.
func TestCorruptedResultBodyTypedError(t *testing.T) {
	conn := snapshotServer(t, func(req protocol.SnapshotHeader) protocol.Message {
		body := []byte("// result snapshot")
		sum := protocol.BodyChecksum(body)
		body[3] ^= 0x10 // corrupt after checksumming
		msg, _ := protocol.Encode(protocol.MsgResultSnapshot, protocol.SnapshotHeader{
			AppID: req.AppID, Seq: req.Seq, BodyCRC: sum,
		}, body)
		return msg
	})
	_, _, err := conn.OffloadSnapshot("a", []byte("// snap"), false)
	if !errors.Is(err, protocol.ErrChecksum) {
		t.Fatalf("err = %v, want protocol.ErrChecksum", err)
	}
	if conn.Broken() {
		t.Error("checksum mismatch must not break the connection: the stream is still aligned")
	}
}

// TestResultForAnotherBaseRejected: a result delta that names a base other
// than the request it answers — here rewritten in flight, checksum made good
// again, so only the identity check stands between it and the app — must be
// refused like a corrupted body is: that one result is poisoned, the app
// state is untouched, the event is audited once, and the connection, whose
// frames all arrived whole, keeps serving.
func TestResultForAnotherBaseRejected(t *testing.T) {
	backend := startEdge(t, edge.Config{Installed: true})
	var results atomic.Int64
	proxy := tearingProxy(t, backend, func(_ int64, resp *protocol.Message) bool {
		if resp.Type != protocol.MsgResultDelta || results.Add(1) != 1 {
			return false
		}
		var hdr protocol.SnapshotHeader
		if err := protocol.DecodeHeader(*resp, &hdr); err != nil {
			t.Error(err)
			return false
		}
		delta, err := snapshot.DecodeDelta(resp.Body)
		if err != nil {
			t.Error(err)
			return false
		}
		// A well-formed name, of a request this stream never sent.
		delta.BaseHash = protocol.SnapshotHeader{Seq: hdr.Seq + 1}.RequestBase(nil)
		body, err := delta.Encode()
		if err != nil {
			t.Error(err)
			return false
		}
		hdr.BodyCRC = protocol.BodyChecksum(body)
		if *resp, err = protocol.Encode(resp.Type, hdr, body); err != nil {
			t.Error(err)
		}
		return false
	})
	conn := dialEdge(t, proxy)
	auditor := obs.NewAuditor(obs.AuditorOptions{Keep: 8})
	off, app := newOffloadedApp(t, conn, Options{
		Audit: auditor,
	})
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	state := func() []byte {
		snap, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
		if err != nil {
			t.Fatal(err)
		}
		snap.Models = nil
		data, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := state()
	click := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	if err := off.Offload(click); !errors.Is(err, snapshot.ErrBaseMismatch) {
		t.Fatalf("offload answered for another base: err = %v, want ErrBaseMismatch", err)
	}
	if after := state(); !bytes.Equal(after, before) {
		t.Errorf("rejected result changed the app state (%d B -> %d B)", len(before), len(after))
	}
	if conn.Broken() {
		t.Error("a mismatched base must not break the connection: the stream is still aligned")
	}
	if decisions := auditor.Recent(); len(decisions) != 1 || decisions[0].Path != obs.PathError {
		t.Errorf("decisions = %+v, want exactly one error decision", decisions)
	}
	if st := off.Stats(); st.Offloads != 0 || st.LocalFallbacks != 0 {
		t.Errorf("stats after the rejected result = %+v", st)
	}
	// The same event again, on the same connection, untampered.
	if err := off.Offload(click); err != nil {
		t.Fatalf("offload after the rejected result: %v", err)
	}
	if mlapp.Result(app) == "" {
		t.Error("second offload left no result")
	}
	if got := auditor.Total(); got != 2 {
		t.Errorf("audit decisions = %d, want 2 (one per event)", got)
	}
}

// TestRetiredDeltaFrameIsCleanError: a client from before the request delta
// was retired may still send a frame of type 8. The server's answer must be
// its verdict on that one request — a complete error frame on an intact
// stream, the kind such a client answers by resending the full snapshot —
// and the full snapshot that follows on the same connection must succeed,
// audited once.
func TestRetiredDeltaFrameIsCleanError(t *testing.T) {
	conn := dialEdge(t, startEdge(t, edge.Config{Installed: true}))
	auditor := obs.NewAuditor(obs.AuditorOptions{Keep: 8})
	off, app := newOffloadedApp(t, conn, Options{
		Audit: auditor,
	})
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	body := []byte("// websnap-delta v1\n")
	_, _, err := call[protocol.SnapshotHeader](conn, "retired delta", protocol.MsgType(8), protocol.MsgResultDelta, func(seq uint64) any {
		return protocol.SnapshotHeader{AppID: app.ID(), Seq: seq, Reply: "delta+sync", BodyCRC: protocol.BodyChecksum(body)}
	}, body)
	if !cleanServerError(err) {
		t.Fatalf("type-8 frame: err = %v, want a clean server error", err)
	}
	if conn.Broken() {
		t.Fatal("a refused frame marked the connection broken")
	}
	if got := classifyOnce(t, off, app, 1); got == "" {
		t.Fatal("no result from the full snapshot after the refused frame")
	}
	if st := off.Stats(); st.Offloads != 1 || st.LocalFallbacks != 0 || st.Redials != 0 {
		t.Errorf("stats = %+v, want one plain offload", st)
	}
	if decisions := auditor.Recent(); len(decisions) != 1 || decisions[0].Path != obs.PathFull {
		t.Errorf("decisions = %+v, want exactly one full offload", decisions)
	}
}

// TestDialWrappedSurvivesRedial pins that the socket decoration passed to
// DialWrapped is re-applied on every Redial, so shaping or fault injection
// stays in force across reconnects.
func TestDialWrappedSurvivesRedial(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	var wraps atomic.Int32
	var raw net.Conn
	conn, err := DialWrapped(addr, func(c net.Conn) net.Conn {
		wraps.Add(1)
		raw = c
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, _, err := conn.Ping(); err != nil {
		t.Fatalf("ping on wrapped conn: %v", err)
	}
	raw.Close() // tear the socket under the Conn
	if _, _, err := conn.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("ping on torn conn: err = %v, want ErrConnBroken", err)
	}
	if err := conn.Redial(); err != nil {
		t.Fatalf("redial: %v", err)
	}
	if _, _, err := conn.Ping(); err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	if got := wraps.Load(); got != 2 {
		t.Errorf("wrap applied %d times, want 2 (dial + redial)", got)
	}
}
