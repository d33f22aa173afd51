package protocol

import (
	"fmt"
	"net"
	"sync"
)

// ConnSet is the connection lifecycle both frame servers run, the edge
// server and the fleet registry: it accepts connections, tracks the live
// ones and the requests admitted on them, and shuts both down in one order.
// Every join happens under the lock Close takes to mark the set closed, so
// a connection or request either joins before and Close waits for it, or
// is refused. The zero value is ready to use.
type ConnSet struct {
	mu            sync.Mutex
	ln            net.Listener
	closed        bool
	conns         map[net.Conn]struct{}
	connWG, reqWG sync.WaitGroup // connection goroutines, admitted requests
}

// Serve accepts connections on ln until Close and runs handle on each in
// its own goroutine, closing the connection when handle returns. It blocks;
// run it in a goroutine. A Serve that starts after Close closes ln and
// returns nil, as one that Close interrupts does: a caller that closes the
// set before its Serve goroutine has run sees a clean shutdown.
func (s *ConnSet) Serve(ln net.Listener, handle func(net.Conn)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("protocol: accept: %w", err)
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Enter admits one request, or reports false once the set is closed. An
// admitted request must call Leave when its response is written.
func (s *ConnSet) Enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// Leave ends a request Enter admitted.
func (s *ConnSet) Leave() { s.reqWG.Done() }

// Close shuts the set down: it refuses new connections and requests, closes
// the listener, runs drain (nil for none), waits for the admitted requests
// so their final frames flush, then closes the live connections, so no
// handler waits forever on an idle peer, and waits for their goroutines.
// It returns the listener's Close error; a second Close returns nil.
func (s *ConnSet) Close(drain func()) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if drain != nil {
		drain()
	}
	s.reqWG.Wait()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}
