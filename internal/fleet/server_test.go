package fleet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// heldListener yields each connection the test sends, and only then, so
// an accept can complete after Close has returned. Its Close does not wake
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
// Close has waited for the server's connections must not be registered or
// served, since nothing would close it. Serve closes it and returns.
func TestAcceptAfterCloseIsRefused(t *testing.T) {
	srv := NewRegistryServer(NewRegistry(RegistryOptions{}), nil)
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
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 0 {
		t.Fatalf("%d connections registered after Close, want 0", len(srv.conns))
	}
}
