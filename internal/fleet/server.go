package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
)

// connIdleTimeout bounds how long a registry connection may sit between
// frames. Agents heartbeat well inside this; anything quieter is dead.
const connIdleTimeout = 30 * time.Second

// RegistryServer speaks the registry's slice of the wire protocol
// (MsgFleetRegister, MsgFleetList, MsgBlobLocate) over framed connections,
// on the connection lifecycle the edge server runs (protocol.ConnSet).
type RegistryServer struct {
	reg   *Registry
	log   *slog.Logger
	conns protocol.ConnSet
}

// NewRegistryServer wraps a Registry in a wire server.
func NewRegistryServer(reg *Registry, logger *slog.Logger) *RegistryServer {
	return &RegistryServer{reg: reg, log: cmp.Or(logger, obs.Discard)}
}

// Registry exposes the wrapped registry (for in-process callers and tests).
func (s *RegistryServer) Registry() *Registry { return s.reg }

// Serve accepts connections on ln until Close. It blocks; run it in a
// goroutine.
func (s *RegistryServer) Serve(ln net.Listener) error { return s.conns.Serve(ln, s.handleConn) }

// Close stops accepting and terminates live connections.
func (s *RegistryServer) Close() error { return s.conns.Close(nil) }

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
			protocol.FleetRegisteredHeader{Servers: servers, Version: version, TTLMillis: s.reg.ttl.Milliseconds()}, nil)
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
				Op:     protocol.SpanRegistryLocate,
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
