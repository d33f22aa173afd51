package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
)

// connIdleTimeout bounds how long a registry connection may sit between
// frames. Agents heartbeat well inside this; anything quieter is dead.
const connIdleTimeout = 30 * time.Second

// RegistryServer speaks the registry's slice of the wire protocol
// (MsgFleetRegister, MsgFleetList, MsgBlobLocate) over framed connections.
// It is deliberately thin: one goroutine per connection, no worker pool —
// registry traffic is a few frames per server per second.
type RegistryServer struct {
	reg *Registry
	log *obs.Logger

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	quit   chan struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewRegistryServer wraps a Registry in a wire server.
func NewRegistryServer(reg *Registry, logger *obs.Logger) *RegistryServer {
	return &RegistryServer{
		reg:   reg,
		log:   logger,
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Registry exposes the wrapped registry (for in-process callers and tests).
func (s *RegistryServer) Registry() *Registry { return s.reg }

// Serve accepts connections on ln until Close. It blocks; run it in a
// goroutine.
func (s *RegistryServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("fleet: registry server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return fmt.Errorf("fleet: accept: %w", err)
			}
		}
		s.trackConn(conn, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.trackConn(conn, false)
			defer conn.Close()
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting and terminates live connections.
func (s *RegistryServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *RegistryServer) trackConn(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

func (s *RegistryServer) handleConn(conn net.Conn) {
	for {
		if err := conn.SetReadDeadline(time.Now().Add(connIdleTimeout)); err != nil {
			return
		}
		msg, err := protocol.Read(conn)
		if err != nil {
			return
		}
		if err := s.dispatch(conn, msg); err != nil {
			s.log.Warn("fleet: registry request failed", obs.Err(err))
			reply, encErr := protocol.Encode(protocol.MsgError,
				protocol.ErrorHeader{Message: err.Error()}, nil)
			if encErr != nil || protocol.Write(conn, reply) != nil {
				return
			}
		}
	}
}

func (s *RegistryServer) dispatch(conn net.Conn, msg protocol.Message) error {
	switch msg.Type {
	case protocol.MsgFleetRegister:
		var hdr protocol.FleetRegisterHeader
		if err := protocol.DecodeHeader(msg, &hdr); err != nil {
			return err
		}
		if hdr.Addr == "" {
			return errors.New("fleet: register without address")
		}
		servers, version := s.reg.Register(hdr)
		reply, err := protocol.Encode(protocol.MsgFleetRegistered,
			protocol.FleetRegisteredHeader{Servers: servers, Version: version}, nil)
		if err != nil {
			return err
		}
		return protocol.Write(conn, reply)
	case protocol.MsgFleetList:
		var hdr protocol.FleetListHeader
		if err := protocol.DecodeHeader(msg, &hdr); err != nil {
			return err
		}
		reply, err := protocol.Encode(protocol.MsgFleetView, s.reg.View(), nil)
		if err != nil {
			return err
		}
		return protocol.Write(conn, reply)
	case protocol.MsgBlobLocate:
		var hdr protocol.BlobLocateHeader
		if err := protocol.DecodeHeader(msg, &hdr); err != nil {
			return err
		}
		start := time.Now()
		resp := protocol.BlobLocationHeader{Holders: s.reg.Locate(hdr.Keys)}
		if hdr.TraceID != "" {
			// The requester propagated a trace through the registry hop:
			// answer with the registry's span so the hop shows up in the
			// request's merged span tree.
			resp.Span = &protocol.SpanNode{
				Op:     "registry_locate",
				Addr:   "registry",
				Micros: time.Since(start).Microseconds(),
			}
		}
		reply, err := protocol.Encode(protocol.MsgBlobLocation, resp, nil)
		if err != nil {
			return err
		}
		return protocol.Write(conn, reply)
	default:
		return fmt.Errorf("fleet: unexpected message %s", msg.Type)
	}
}
