package edge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/trace"
)

// A fleet-joined edge server shares what its session store holds: peers
// fetch model weight blobs (keyed by nn.Fingerprint) straight from the
// store's entries, and the heartbeat advertises the store's keys. The one
// thing the server needs from outside is a locator that maps blob keys to
// peer addresses, a narrow interface so that edge does not import the fleet
// package (whose tests import edge); cmd/edged wires a fleet.RegistryClient.

// BlobLocator reports which fleet peers hold each blob key
// (fleet.RegistryClient implements it).
type BlobLocator interface {
	Locate(keys []string) (map[string][]string, error)
}

// tracedLocator is the optional tracing upgrade of BlobLocator
// (fleet.RegistryClient implements it): the locate propagates the
// request's trace ID through the registry hop and returns the registry's
// span for the merged tree. Discovered by interface assertion so edge
// keeps not importing fleet.
type tracedLocator interface {
	LocateTraced(keys []string, traceID string) (map[string][]string, *protocol.SpanNode, error)
}

// spanTrail accumulates the fleet-hop spans of one traced request as it
// crosses processes: registry locates and peer fetches append their
// SpanNodes here, and the request handler parents them all under one root
// carried back on the response. A nil trail means the request carried no
// trace ID; the hops still happen, they just aren't reported.
type spanTrail struct {
	traceID string
	spans   []*protocol.SpanNode
}

// add appends a span to the trail (nil-safe).
func (t *spanTrail) add(n *protocol.SpanNode) {
	if t != nil && n != nil {
		t.spans = append(t.spans, n)
	}
}

// id returns the propagated trace ID ("" for untraced requests).
func (t *spanTrail) id() string {
	if t == nil {
		return ""
	}
	return t.traceID
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
// later requests and peers are served from here.
func (s *Server) resolveBlob(key string, trail *spanTrail, verify func([]byte) error) error {
	if s.cfg.Locator == nil {
		return errBlobUnavailable
	}
	holders, err := s.locateBlob(key, trail)
	if err != nil {
		return fmt.Errorf("%w: locate: %v", errBlobUnavailable, err)
	}
	var lastErr error
	for _, addr := range holders[key] {
		if addr == s.cfg.AdvertiseAddr {
			continue // the index may lag our own evictions
		}
		data, err := s.fetchBlobFromPeer(addr, key, trail)
		if err == nil {
			err = verify(data)
		}
		if err != nil {
			lastErr = err
			s.log.Warn("edge: peer blob fetch failed", obs.F("blob", key), obs.F("peer", addr), obs.Err(err))
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
// request's trace through the registry hop when both sides support it.
// The hop's round trip feeds the StageRegistry histogram either way.
func (s *Server) locateBlob(key string, trail *spanTrail) (map[string][]string, error) {
	start := time.Now()
	var (
		holders map[string][]string
		span    *protocol.SpanNode
		err     error
	)
	if tl, ok := s.cfg.Locator.(tracedLocator); ok && trail.id() != "" {
		holders, span, err = tl.LocateTraced([]string{key}, trail.id())
	} else {
		holders, err = s.cfg.Locator.Locate([]string{key})
	}
	rtt := time.Since(start)
	s.rec.Observe(trace.StageRegistry, rtt)
	if err != nil {
		return nil, err
	}
	if trail != nil {
		if span == nil {
			// The locator does not trace; record the hop from this side so
			// the tree still shows it.
			span = &protocol.SpanNode{Op: "registry_rpc", Micros: rtt.Microseconds()}
		}
		span.Detail = key
		trail.add(span)
	}
	return holders, nil
}

// fetchBlobFromPeer performs one MsgBlobGet round trip against another
// edge server and verifies the returned bytes against the frame checksum.
// Content identity (the bytes actually hashing to key) is verified by the
// caller where the decoded form is at hand. A traced fetch (trail != nil)
// propagates the trace ID to the peer and nests the peer's serve span
// under this hop's round-trip span.
func (s *Server) fetchBlobFromPeer(addr, key string, trail *spanTrail) ([]byte, error) {
	start := time.Now()
	body, remote, err := s.doFetchBlob(addr, key, trail.id())
	rtt := time.Since(start)
	s.rec.Observe(trace.StagePeerFetch, rtt)
	if trail != nil {
		span := &protocol.SpanNode{
			Op:     "peer_fetch",
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
		trail.add(span)
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
func (s *Server) handleBlobGet(hdr *protocol.BlobGetHeader) (protocol.Message, error) {
	start := time.Now()
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
		// The fetching peer propagated a trace: answer with this server's
		// serve span so the requester's tree covers this process too.
		resp.Span = &protocol.SpanNode{
			Op:     "blob_serve",
			Addr:   s.cfg.AdvertiseAddr,
			Micros: time.Since(start).Microseconds(),
			Detail: hdr.Key,
		}
	}
	return protocol.Encode(protocol.MsgBlobData, resp, data)
}

// resolveModel resolves a reference-only model pre-send to the model its
// BlobKey names: the one this store already holds under that key (nothing
// to decode or verify — the key is the held model's fingerprint), or one
// rebuilt from a peer's weight bytes, which must hash back to the key (spec
// and weights both feed nn.Fingerprint, so a wrong or tampered blob cannot
// be installed). That check runs per candidate holder, so one bad or stale
// peer cannot end the search while others still hold the real bytes.
func (s *Server) resolveModel(hdr protocol.ModelPreSendHeader, trail *spanTrail) (*nn.Network, error) {
	switch {
	case hdr.BlobKey == "":
		return nil, errors.New("reference pre-send without blob key")
	case !s.fleetEnabled():
		return nil, errBlobUnavailable
	}
	if e := s.store.lookup(hdr.BlobKey); e != nil {
		return e.net, nil
	}
	var net *nn.Network
	err := s.resolveBlob(hdr.BlobKey, trail, func(body []byte) error {
		decoded, err := decodeModel(hdr, body)
		if err != nil {
			return err
		}
		if got := nn.Fingerprint(decoded); got != hdr.BlobKey {
			return fmt.Errorf("blob %s rebuilt model fingerprints to %s", hdr.BlobKey, got)
		}
		net = decoded
		return nil
	})
	return net, err
}
