// Package conntest holds the listener-driven checks the frame servers'
// tests share (protocol.ConnSet, the edge server and the fleet registry).
// It is kept apart from testutil so that test binaries with no network
// code do not link net: net's address interning runs a cleanup goroutine
// after every GC, and its allocations would land in testutil.MeasureAllocs.
package conntest

import (
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/testutil"
)

// heldListener yields each connection the test sends, and only then, so an
// accept can complete after Close has returned. Its Close does not wake
// Accept; closing conns does, the way a closed listener fails. accepting
// closes on the first Accept, which a server reaches only once it has
// recorded the listener for Close to find.
type heldListener struct {
	conns     chan net.Conn
	accepting chan struct{}
	once      sync.Once
}

func (l *heldListener) Accept() (net.Conn, error) {
	l.once.Do(func() { close(l.accepting) })
	if c, ok := <-l.conns; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}

func (*heldListener) Close() error   { return nil }
func (*heldListener) Addr() net.Addr { return &net.TCPAddr{} }

// AcceptAfterClose checks that a connection the listener yields after
// Close has returned is neither tracked nor handled, since nothing would
// close it: serve must close it and return nil. Callers check afterwards
// that their handler never ran.
func AcceptAfterClose(t testutil.TB, serve func(net.Listener) error, closeFn func() error) {
	t.Helper()
	ln := &heldListener{conns: make(chan net.Conn), accepting: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- serve(ln) }()
	<-ln.accepting // Close must find the listener, or Serve would never call Accept
	if err := closeFn(); err != nil {
		t.Errorf("Close: %v", err)
		return
	}
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	ln.conns <- serverSide // Accept returns it only now, after Close
	close(ln.conns)

	clientSide.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := clientSide.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("a connection accepted after Close read %v, want EOF: the server kept it open", err)
		return
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("Serve did not return after Close")
	}
}

// pipeListener's Accept returns at once, every time, with the server end
// of a new net.Pipe. The client ends stay open and idle, so a server's
// handlers block on reads only its Close can end. Only Serve's goroutine
// appends to clients.
type pipeListener struct {
	closed  atomic.Bool
	clients []net.Conn
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	server, client := net.Pipe()
	l.clients = append(l.clients, client)
	return server, nil
}

func (l *pipeListener) Close() error { l.closed.Store(true); return nil }
func (*pipeListener) Addr() net.Addr { return &net.TCPAddr{} }

// CloseRace races a server's Close against a flood of idle connections.
// Each round builds a server with start, serves a listener that accepts a
// new idle connection whenever asked, and closes the server 0–maxDelay
// after Serve starts. It fails the test when Close or Serve has not
// returned two seconds later, and runs rounds until budget has elapsed.
func CloseRace(t testutil.TB, budget, maxDelay time.Duration, start func() (serve func(net.Listener) error, close func() error)) {
	t.Helper()
	for end := time.Now().Add(budget); time.Now().Before(end); {
		serve, closeFn := start()
		ln := &pipeListener{}
		served := make(chan struct{})
		go func() {
			defer close(served)
			serve(ln) //nolint:errcheck // only whether Serve returns is tested
		}()
		time.Sleep(rand.N(maxDelay + 1))
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			closeFn() //nolint:errcheck // only whether Close returns is tested
		}()
		for name, done := range map[string]chan struct{}{"Close": closed, "Serve": served} {
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Errorf("%s hung with idle connections open", name)
				return
			}
		}
		for _, c := range ln.clients {
			c.Close()
		}
	}
}
