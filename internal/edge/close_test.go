package edge

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

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

// heldListener yields each connection the test sends, and only then, so an
// accept can complete after Close has returned. Its Close does not wake
// Accept; closing conns does, the way a closed listener fails.
type heldListener struct{ conns chan net.Conn }

func (l heldListener) Accept() (net.Conn, error) {
	if c, ok := <-l.conns; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}

func (heldListener) Close() error   { return nil }
func (heldListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptAfterCloseIsRefused: a connection the listener yields after
// Close has waited for the server's connections must not join the wait
// group Close is done with (Serve's Add raced Close's Wait) or be served,
// since nothing would close it. Serve closes it and returns.
func TestAcceptAfterCloseIsRefused(t *testing.T) {
	srv, err := NewServer(Config{Installed: true, Catalog: testCatalog(t)})
	if err != nil {
		t.Fatal(err)
	}
	ln := heldListener{conns: make(chan net.Conn)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	for { // Close must find the listener, or Serve would refuse to start
		srv.mu.Lock()
		started := srv.ln != nil
		srv.mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	ln.conns <- serverSide // Accept returns it only now, after Close
	close(ln.conns)

	clientSide.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := clientSide.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("a connection accepted after Close read %v, want EOF: the server kept it open", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if m := srv.Metrics(); m.ConnsServed != 0 {
		t.Fatalf("%d connections served after Close, want 0", m.ConnsServed)
	}
}
