package edge

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
)

// A fleet-joined edge server shares what its session store holds: peers
// fetch model weight blobs (keyed by nn.Fingerprint) straight from the
// store's entries, and the heartbeat advertises the store's keys. The one
// thing the server needs from outside is a locator that maps blob keys to
// peer addresses, a narrow interface so that edge does not import the fleet
// package (whose tests import edge); cmd/edged wires a fleet.RegistryClient.

// BlobLocator reports which fleet peers hold each blob key
// (fleet.RegistryClient implements it). A non-empty traceID propagates the
// request's trace through the registry hop, whose span comes back for the
// merged tree; a locator that does not trace returns a nil span.
type BlobLocator interface {
	Locate(keys []string, traceID string) (map[string][]string, *protocol.SpanNode, error)
}

// peerFetchTimeout bounds one peer-to-peer blob fetch (dial + request +
// transfer).
const peerFetchTimeout = 5 * time.Second

// errBlobUnavailable reports a blob no peer could supply; the pre-send path
// answers it with a NeedBlob ack so the client re-sends the bytes.
var errBlobUnavailable = errors.New("edge: blob unavailable in fleet")

// fleetEnabled reports whether this server shares blobs with a fleet: it
// does exactly when it has a fleet identity to be fetched under.
func (s *Server) fleetEnabled() bool { return s.cfg.AdvertiseAddr != "" }

// LoadHint returns the server's current scheduling load, as advertised on
// response headers and registry heartbeats.
func (s *Server) LoadHint() *protocol.LoadHint { return s.loadHint() }

// BlobKeys returns the content-addressed keys this server currently holds
// — the set a registry heartbeat advertises, hot (recently used) end
// first so a capped advertisement keeps the keys peers most likely want.
// Nil when fleet sharing is disabled.
func (s *Server) BlobKeys() []string {
	if !s.fleetEnabled() {
		return nil
	}
	return s.store.KeysMRU()
}

// resolveBlob fetches the blob for key from a fleet peer found through the
// locator; the caller tries its own store first. verify judges — and keeps
// what it decodes of — candidate bytes inside the holder loop, because the
// blob index lags evictions and a stale or corrupt first holder must not end
// the search while the remaining holders can still satisfy it. The caller
// stores what verify decoded, so the next heartbeat advertises the key and
// later requests and peers are served from here. Only a fleet-joined server
// with a locator looks beyond its own store. A traced req collects the
// registry and peer hops as children of its span.
func (s *Server) resolveBlob(key string, req *request, verify func([]byte) error) error {
	if !s.fleetEnabled() || s.cfg.Locator == nil {
		return errBlobUnavailable
	}
	holders, err := s.locateBlob(key, req)
	if err != nil {
		return fmt.Errorf("%w: locate: %v", errBlobUnavailable, err)
	}
	var lastErr error
	for _, addr := range holders[key] {
		if addr == s.cfg.AdvertiseAddr {
			continue // the index may lag our own evictions
		}
		data, err := s.fetchBlobFromPeer(addr, key, req)
		if err == nil {
			err = verify(data)
		}
		if err != nil {
			lastErr = err
			s.log.Warn("edge: peer blob fetch failed", slog.Any("blob", key), slog.Any("peer", addr), obs.Err(err))
			continue
		}
		s.blobPeerFetches.Inc()
		s.blobPeerFetchBytes.Add(int64(len(data)))
		return nil
	}
	if lastErr != nil {
		return fmt.Errorf("%w: %v", errBlobUnavailable, lastErr)
	}
	return errBlobUnavailable
}

// locateBlob asks the locator which peers hold key, propagating the
// request's trace through the registry hop. The hop's round trip feeds the
// registry_rpc stage histogram either way.
func (s *Server) locateBlob(key string, req *request) (map[string][]string, error) {
	start := time.Now()
	holders, span, err := s.cfg.Locator.Locate([]string{key}, req.env.TraceID)
	rtt := time.Since(start)
	s.stages[protocol.SpanRegistryRPC].Observe(rtt)
	if err != nil {
		return nil, err
	}
	if req.env.TraceID != "" {
		if span == nil {
			// The locator does not trace; record the hop from this side so
			// the tree still shows it.
			span = &protocol.SpanNode{Op: protocol.SpanRegistryRPC, Micros: rtt.Microseconds()}
		}
		span.Detail = key
		req.span.Children = append(req.span.Children, span)
	}
	return holders, nil
}

// fetchBlobFromPeer performs one MsgBlobGet round trip against another
// edge server and verifies the returned bytes against the frame checksum.
// Content identity (the bytes actually hashing to key) is verified by the
// caller where the decoded form is at hand. A traced fetch propagates the
// trace ID to the peer and nests the peer's serve span under this hop's
// round-trip span.
func (s *Server) fetchBlobFromPeer(addr, key string, req *request) ([]byte, error) {
	start := time.Now()
	body, remote, err := s.doFetchBlob(addr, key, req.env.TraceID)
	rtt := time.Since(start)
	s.stages[protocol.SpanPeerFetch].Observe(rtt)
	if req.env.TraceID != "" {
		span := &protocol.SpanNode{
			Op:     protocol.SpanPeerFetch,
			Addr:   addr,
			Micros: rtt.Microseconds(),
			Detail: key,
		}
		if err != nil {
			span.Detail = key + " error: " + err.Error()
		}
		if remote != nil {
			span.Children = []*protocol.SpanNode{remote}
		}
		req.span.Children = append(req.span.Children, span)
	}
	return body, err
}

// dialPeer opens the connection for one server-to-server exchange (a blob
// fetch or a chain relay) over Config.PeerDial, TCP by default.
func (s *Server) dialPeer(addr string, timeout time.Duration) (net.Conn, error) {
	if s.cfg.PeerDial != nil {
		return s.cfg.PeerDial(addr, timeout)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// doFetchBlob is the wire round trip of fetchBlobFromPeer.
func (s *Server) doFetchBlob(addr, key, traceID string) ([]byte, *protocol.SpanNode, error) {
	conn, err := s.dialPeer(addr, peerFetchTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("peer %s: %w", addr, err)
	}
	defer conn.Close()
	req, err := protocol.Encode(protocol.MsgBlobGet, protocol.BlobGetHeader{Key: key, TraceID: traceID}, nil)
	if err != nil {
		return nil, nil, err
	}
	var hdr protocol.BlobDataHeader
	resp, err := protocol.Call(conn, peerFetchTimeout, req, protocol.MsgBlobData, &hdr)
	if err != nil {
		return nil, nil, fmt.Errorf("peer %s: %w", addr, err)
	}
	if hdr.Key != key {
		return nil, hdr.Span, fmt.Errorf("peer %s: sent blob %s, want %s", addr, hdr.Key, key)
	}
	if err := protocol.VerifyBody(resp.Body, hdr.BodyCRC); err != nil {
		return nil, hdr.Span, fmt.Errorf("peer %s: %w", addr, err)
	}
	return resp.Body, hdr.Span, nil
}

// handleBlobGet serves a peer's content-addressed fetch from the session
// store.
func (s *Server) handleBlobGet(req *request, hdr *protocol.BlobGetHeader) (protocol.Message, error) {
	if !s.fleetEnabled() {
		return protocol.Message{}, errors.New("blob sharing not enabled on this edge server")
	}
	data, ok := s.store.Blob(hdr.Key)
	if !ok {
		return protocol.Message{}, fmt.Errorf("blob %s not held here", hdr.Key)
	}
	s.blobsServed.Inc()
	resp := protocol.BlobDataHeader{
		Key:     hdr.Key,
		Seq:     hdr.Seq,
		BodyCRC: protocol.BodyChecksum(data),
	}
	if hdr.TraceID != "" {
		// The fetching peer propagated a trace: answer with this request's
		// span so the requester's tree covers this process too.
		req.span.Op, req.span.Detail = protocol.SpanBlobServe, hdr.Key
		resp.Span = req.finish()
	}
	return protocol.Encode(protocol.MsgBlobData, resp, data)
}

// resolveModel resolves a reference-only model pre-send to the model its
// BlobKey names: the one this store already holds under that key (nothing
// to decode or verify — the key is the held model's fingerprint), or, on a
// fleet-joined server, one rebuilt from a peer's weight bytes, which must
// hash back to the key (spec and weights both feed nn.Fingerprint, so a
// wrong or tampered blob cannot be installed). That check runs per
// candidate holder, so one bad or stale peer cannot end the search while
// others still hold the real bytes.
func (s *Server) resolveModel(hdr protocol.ModelPreSendHeader, req *request) (*nn.Network, error) {
	if hdr.BlobKey == "" {
		return nil, errors.New("reference pre-send without blob key")
	}
	if e := s.store.lookup(hdr.BlobKey); e != nil {
		return e.net, nil
	}
	var net *nn.Network
	err := s.resolveBlob(hdr.BlobKey, req, func(body []byte) error {
		decoded, err := decodeModel(hdr, body)
		if err != nil {
			return err
		}
		if got := nn.BlobFingerprint(decoded, body); got != hdr.BlobKey {
			return fmt.Errorf("blob %s rebuilt model fingerprints to %s", hdr.BlobKey, got)
		}
		net = decoded
		return nil
	})
	return net, err
}
