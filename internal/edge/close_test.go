package edge

import (
	"net"
	"sync"
	"testing"

	"websnap/internal/protocol"
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
		srv.dispatchStream(serverSide, &connWriter{conn: serverSide}, slots, &streams, ping)
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
