package protocol

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/testutil/conntest"
)

// TestAcceptAfterCloseIsRefused: a connection the listener yields after
// Close has waited for the set's connections must not join the wait group
// Close is done with (Serve's Add raced Close's Wait) or be handled, since
// nothing would close it. Serve closes it and returns nil.
func TestAcceptAfterCloseIsRefused(t *testing.T) {
	var s ConnSet
	var handled atomic.Int64
	conntest.AcceptAfterClose(t, func(ln net.Listener) error {
		return s.Serve(ln, func(net.Conn) { handled.Add(1) })
	}, func() error { return s.Close(nil) })
	if n := handled.Load(); n != 0 {
		t.Fatalf("%d connections handled after Close, want 0", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) != 0 {
		t.Fatalf("%d connections live after Close, want 0", len(s.conns))
	}
}

// TestServeAfterCloseReturnsNil: a Serve whose goroutine first runs after
// Close, as one started just before a quick Close may, shuts the listener
// Close never saw and returns nil.
func TestServeAfterCloseReturnsNil(t *testing.T) {
	var s ConnSet
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln, func(net.Conn) { t.Error("a connection was handled after Close") }); err != nil {
		t.Fatalf("Serve after Close returned %v, want nil", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener Accept after Serve returned %v, want net.ErrClosed", err)
	}
}

// TestCloseOrder: Close refuses new requests, closes the listener and runs
// drain before it waits for admitted requests, and closes live connections
// only after those requests have left.
func TestCloseOrder(t *testing.T) {
	var s ConnSet
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handling := make(chan struct{})
	go s.Serve(ln, func(c net.Conn) { //nolint:errcheck // Close ends Serve
		close(handling)
		c.Read(make([]byte, 1)) //nolint:errcheck // blocks until Close closes c
	})
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	<-handling
	if !s.Enter() {
		t.Fatal("Enter refused on an open set")
	}
	var steps []string
	drained := make(chan struct{})
	closed := make(chan error, 1)
	go func() {
		closed <- s.Close(func() {
			if s.Enter() {
				steps = append(steps, "request admitted during drain")
			}
			if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
				steps = append(steps, "listener open during drain")
			}
			close(drained)
		})
	}()
	<-drained
	// The admitted request still holds Close: the connection stays open.
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var ne net.Error
	if _, err := client.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
		steps = append(steps, fmt.Sprintf("connection read %v before the request left, want a timeout", err))
	}
	s.Leave()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		steps = append(steps, "connection left open after Close")
	}
	for _, step := range steps {
		t.Error(step)
	}
}

// TestCloseRaceReturns races Close against a listener handing out idle
// connections as fast as Serve accepts them: a connection that joins the
// live set after Close has swept it would hold Close's wait forever.
func TestCloseRaceReturns(t *testing.T) {
	conntest.CloseRace(t, 1500*time.Millisecond, 80*time.Microsecond, func() (func(net.Listener) error, func() error) {
		s := new(ConnSet)
		idle := func(c net.Conn) { io.Copy(io.Discard, c) } //nolint:errcheck // ends when Close closes c
		return func(ln net.Listener) error { return s.Serve(ln, idle) }, func() error { return s.Close(nil) }
	})
}
