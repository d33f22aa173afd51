package edge

import (
	"net"
	"sync"
	"testing"
	"time"

	"websnap/internal/protocol"
	"websnap/internal/testutil/conntest"
)

// TestStreamAfterCloseIsRefused dispatches a frame on a server that Close
// has already shut down, the way a connection's read loop would if the
// frame arrived during shutdown. The request must not join a wait group
// Close is no longer waiting on: the stream gets exactly one Error frame,
// under its seq, and its handler never runs.
func TestStreamAfterCloseIsRefused(t *testing.T) {
	srv, err := NewServer(Config{Installed: true, Catalog: testCatalog(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	ping, err := protocol.Encode(protocol.MsgPing, protocol.PingHeader{Seq: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slots := make(chan struct{}, 1)
	go func() {
		var streams sync.WaitGroup
		srv.dispatchStream(serverSide, protocol.NewWriter(serverSide), slots, &streams, srv.newRequest(ping))
		streams.Wait()
		serverSide.Close()
	}()
	var frames []protocol.Message
	for {
		msg, err := protocol.Read(clientSide)
		if err != nil {
			break
		}
		frames = append(frames, msg)
	}
	if len(frames) != 1 || frames[0].Type != protocol.MsgError {
		types := make([]protocol.MsgType, len(frames))
		for i, f := range frames {
			types[i] = f.Type
		}
		t.Fatalf("a stream opened after Close was answered with %v, want one Error frame", types)
	}
	_, env, err := protocol.DecodeFrame(frames[0])
	if err != nil || env.Seq != 7 {
		t.Fatalf("refusal carries seq %d (err %v), want 7", env.Seq, err)
	}
	if n := srv.muxRequests.Value(); n != 0 {
		t.Fatalf("%d requests dispatched after Close, want none", n)
	}
	if len(slots) != 0 {
		t.Fatal("the refused stream kept its slot")
	}
}

// TestCloseRaceReturns races the server's Close against a listener handing
// out idle connections as fast as Serve accepts them: a connection that
// joins the live set after Close has swept it would hold Close forever.
func TestCloseRaceReturns(t *testing.T) {
	cat := testCatalog(t)
	conntest.CloseRace(t, 1500*time.Millisecond, 80*time.Microsecond, func() (func(net.Listener) error, func() error) {
		srv, err := NewServer(Config{Installed: true, Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Serve, srv.Close
	})
}

// TestAcceptAfterCloseIsRefused: a connection the listener yields after
// Close has waited for the server's connections must not be served, since
// nothing would close it. Serve closes it and returns.
func TestAcceptAfterCloseIsRefused(t *testing.T) {
	srv, err := NewServer(Config{Installed: true, Catalog: testCatalog(t)})
	if err != nil {
		t.Fatal(err)
	}
	conntest.AcceptAfterClose(t, srv.Serve, srv.Close)
	if m := srv.Metrics(); m.ConnsServed != 0 || m.ConnsRefused != 0 {
		t.Fatalf("%d connections served and %d refused after Close, want 0 and 0", m.ConnsServed, m.ConnsRefused)
	}
}
