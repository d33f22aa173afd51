package client

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"websnap/internal/edge"
	"websnap/internal/protocol"
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
