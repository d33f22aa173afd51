// Package client implements the client-device side of snapshot-based
// offloading: the synchronous RPC channel to an edge server, asynchronous
// model pre-sending with ACK tracking (§III.B.1), and the Offloader that
// intercepts designated events, ships snapshots, and applies result
// snapshots back into the running app (§III.A).
package client

import (
	"cmp"
	"compress/flate"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/trace"
)

// hangupGrace bounds how long a request whose write failed waits for the
// reader to report why the peer hung up.
const hangupGrace = 100 * time.Millisecond

// defaultDialTimeout bounds Redial's connect when no request timeout is set.
const defaultDialTimeout = 2 * time.Second

// DefaultMaxStreams is the cap on concurrent logical streams in flight on one
// Conn; further requests wait for a slot.
const DefaultMaxStreams = 64

// ErrServerError wraps a MsgError response from the edge server.
var ErrServerError = errors.New("client: edge server error")

// ErrOverloaded wraps a MsgError response whose header carries the overload
// marker: the request was fine, but the server's admission queue is full.
// The client should execute locally (or pick another server) instead of
// retrying. ErrOverloaded errors also match ErrServerError.
var ErrOverloaded = errors.New("client: edge server overloaded")

// ErrConnBroken marks a connection whose frame stream is no longer
// trustworthy: a previous request failed mid-I/O (deadline expiry while a
// frame was in flight, a short write, a torn read), so the next bytes on
// the wire may belong to a stale response. Reusing such a connection would
// decode garbage as a frame header; every subsequent request fails fast
// with this error instead. Callers should Redial (or dial a fresh Conn) and
// may fall back to local execution meanwhile.
var ErrConnBroken = errors.New("client: connection broken mid-frame")

// Conn is a multiplexed request/response channel to an edge server's
// offloading program. Every request is its own logical stream: it carries a
// fresh Seq, frames are written one at a time — a body over
// protocol.ChunkThreshold in chunks, to a server that reads them, so a
// sibling stream waits for at most one chunk — and a single reader
// goroutine routes each response to the waiting request by the Seq the
// server echoes. Any number of goroutines may share one Conn (the pre-send
// goroutine, the offloading path, many sessions), with at most
// DefaultMaxStreams requests in flight at once.
//
// Servers attach their scheduling load to responses, which the Conn records
// for LastLoad, and their capability hints, of which it keeps whether the
// server decodes packed bodies and reads chunked ones.
type Conn struct {
	// mu guards rw, fw, gen, timeout, broken, pending and readerDone. It is
	// never held across socket I/O.
	mu sync.Mutex
	rw net.Conn
	// fw writes rw's frames, one at a time. It is apart from mu so that a
	// long paced upload does not keep the reader from routing sibling
	// streams' responses.
	fw *protocol.Writer
	// gen numbers the socket in rw: Redial counts it up as it installs a
	// fresh one. A failure names its socket by gen, never by comparing
	// net.Conn values — a wrapper need not be comparable.
	gen     uint64
	timeout time.Duration
	// addr is the dialed address; empty for Conns wrapped around an
	// existing net.Conn, which cannot Redial.
	addr string
	// wrap, when set, decorates every dialed socket (netem shaping, chaos
	// injection); applying it inside Redial keeps the decoration across
	// reconnects.
	wrap func(net.Conn) net.Conn
	// broken, when non-nil, is why the frame stream was declared desynced
	// (it wraps ErrConnBroken); requests fail fast with it until Redial.
	broken error
	// pending maps an in-flight request's Seq to its reply channel.
	pending map[uint64]chan muxReply
	// readerDone is closed when the current reader goroutine exits.
	readerDone chan struct{}

	seq atomic.Uint64
	// slots bounds in-flight logical streams (per-stream flow control);
	// acquiring a slot blocks when the window is full.
	slots chan struct{}

	loadMu   sync.Mutex
	lastLoad *protocol.LoadHint
	loadAt   time.Time

	// peerPacks is set once a response of the current socket's server has
	// carried protocol.HintPackedBody; until then bodies go raw. peerChunks
	// likewise, for protocol.HintChunks; until then bodies go whole.
	peerPacks, peerChunks atomic.Bool
}

// muxReply is one demultiplexed response with the header the reader
// decoded (protocol.DecodeFrame), or the error that ended the stream.
type muxReply struct {
	msg protocol.Message
	hdr any
	err error
}

// noteLoad records a load hint found in a response header.
func (c *Conn) noteLoad(h *protocol.LoadHint) {
	if h == nil {
		return
	}
	c.loadMu.Lock()
	c.lastLoad = h
	c.loadAt = time.Now()
	c.loadMu.Unlock()
}

// LastLoad returns the most recent load hint received from the server and
// when it arrived. ok is false when no response has arrived yet.
func (c *Conn) LastLoad() (hint protocol.LoadHint, at time.Time, ok bool) {
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	if c.lastLoad == nil {
		return protocol.LoadHint{}, time.Time{}, false
	}
	return *c.lastLoad, c.loadAt, true
}

// hintFreshFor is how long a load hint steers the partition decision after
// it arrives.
const hintFreshFor = 5 * time.Second

// FreshLoad is LastLoad gated on age: ok only when the hint arrived within
// hintFreshFor. A stale hint describes a queue that has long since drained
// or grown, so nothing should steer by it.
func (c *Conn) FreshLoad() (hint protocol.LoadHint, ok bool) {
	hint, at, ok := c.LastLoad()
	return hint, ok && time.Since(at) <= hintFreshFor
}

// SetRequestTimeout bounds each request/response round trip; a server that
// stops responding yields an error instead of a hang. Zero (the default)
// disables the bound. Large model pre-sends over slow links need a
// correspondingly generous timeout.
func (c *Conn) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// NewConn wraps an established connection (possibly netem-shaped) and
// starts its reader; Close stops it.
func NewConn(rw net.Conn) *Conn {
	c := &Conn{
		rw:         rw,
		fw:         protocol.NewWriter(rw),
		pending:    make(map[uint64]chan muxReply),
		readerDone: make(chan struct{}),
		slots:      make(chan struct{}, DefaultMaxStreams),
	}
	go c.readLoop(rw, 0, c.readerDone)
	return c
}

// Dial connects to an edge server at addr over TCP. The Conn remembers the
// address, so a broken connection can be re-established with Redial.
func Dial(addr string) (*Conn, error) {
	return DialWrapped(addr, nil)
}

// DialWrapped connects like Dial but passes every dialed socket through
// wrap (netem shaping, fault injection) before framing. Unlike wrapping the
// socket yourself and using NewConn, the decoration survives Redial: each
// reconnect dials raw TCP and re-applies wrap to the fresh socket. A nil
// wrap is identity.
func DialWrapped(addr string, wrap func(net.Conn) net.Conn) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if wrap != nil {
		c = wrap(c)
	}
	conn := NewConn(c)
	conn.addr = addr
	conn.wrap = wrap
	return conn, nil
}

// Addr returns the dialed server address — the server identity recorded on
// offload decisions. Empty for Conns wrapped around an established
// connection.
func (c *Conn) Addr() string { return c.addr }

// Close closes the underlying connection and joins the reader goroutine,
// so callers (and goroutine-leak checks) see a fully quiesced Conn when
// Close returns. Requests still in flight fail with ErrConnBroken.
func (c *Conn) Close() error {
	c.mu.Lock()
	err := c.rw.Close()
	done := c.readerDone
	c.mu.Unlock()
	<-done
	return err
}

// Broken reports whether the connection has been marked desynced; all
// further requests fail with ErrConnBroken until Redial succeeds.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken != nil
}

// Redial re-establishes a broken dialed connection in place: the old socket
// is closed, a fresh one replaces it, and the broken mark is cleared. Many
// streams sharing the Conn may race to recover; the first Redial to finish
// heals the connection for all of them and the rest are no-ops. Conns
// wrapped around an existing net.Conn (NewConn) cannot redial. The server's
// per-app state (the pre-sent models) is keyed by app ID, not by connection,
// so it survives the reconnect.
func (c *Conn) Redial() error {
	c.mu.Lock()
	if c.addr == "" {
		c.mu.Unlock()
		return fmt.Errorf("client: cannot redial a wrapped connection: %w", ErrConnBroken)
	}
	if c.broken == nil {
		c.mu.Unlock()
		return nil
	}
	old, oldGen := c.rw, c.gen
	oldDone := c.readerDone
	// The dial is bounded like any request: a black-holed host must not
	// park the caller on the OS connect timeout.
	dialTimeout := c.timeout
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}
	c.mu.Unlock()

	// Retire the old socket's reader before splicing in a fresh socket:
	// closing the socket fails its pending streams and stops the reader, so
	// no goroutine is still draining stale frames when the new one starts.
	old.Close() //nolint:errcheck // the old socket is already suspect
	<-oldDone

	fresh, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("client: redial %s: %w", c.addr, err)
	}
	if c.wrap != nil {
		fresh = c.wrap(fresh)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != oldGen && c.broken == nil {
		// A concurrent Redial already installed a healthy socket; keep it.
		fresh.Close() //nolint:errcheck // redundant socket
		return nil
	}
	c.rw, c.fw = fresh, protocol.NewWriter(fresh)
	c.gen++
	c.broken = nil
	// Whoever answers at the address now says so again.
	c.peerPacks.Store(false)
	c.peerChunks.Store(false)
	c.readerDone = make(chan struct{})
	go c.readLoop(fresh, c.gen, c.readerDone)
	return nil
}

// serverError turns a MsgError frame into the matching client error. A
// clean error frame is a complete frame, so it never breaks the connection.
func (c *Conn) serverError(hdr *protocol.ErrorHeader) error {
	err := fmt.Errorf("%w: %s", ErrServerError, hdr.Message)
	if hdr.Overloaded {
		err = fmt.Errorf("%w: %w: %s", ErrServerError, ErrOverloaded, hdr.Message)
	}
	if hdr.ChainHop > 0 {
		// A chain failure names the hop that died; keep the attribution on
		// the error so the planner can exclude that server and re-plan.
		err = &ChainHopError{Hop: hdr.ChainHop, Err: err}
	}
	return err
}

// NegotiateMux sizes the stream window to maxStreams; it must be called
// before the Conn is shared across goroutines. There is nothing to
// negotiate: every Conn is multiplexed.
//
// Deprecated: kept only because benchmark/workload.go:185 still calls it,
// until a benchmark PR drops the call.
func (c *Conn) NegotiateMux(maxStreams int) (bool, error) {
	if maxStreams > 0 {
		c.slots = make(chan struct{}, maxStreams)
	}
	return true, nil
}

// presizeResult is how much of a chunked result's declared length the reader
// allocates before its chunks arrive: as much as it makes room for at once
// for a whole frame.
const presizeResult = 1 << 20

// readLoop is the Conn's single reader: it reads each response through a
// buffer — a chunked one reassembled — decodes its header once — stream ID
// (every response header carries the shared "seq" key), the server's load
// and capability hints — and hands the frame with its header to the waiting
// request. A read error, a response for no pending stream, or one whose
// header does not parse far enough to name its stream all mean the frame
// stream can no longer be trusted, so every pending request fails and the
// loop exits; Redial starts a fresh loop on the replacement socket.
func (c *Conn) readLoop(rw net.Conn, gen uint64, done chan struct{}) {
	defer close(done)
	dmx := protocol.NewDemux(rw)
	dmx.Presize = presizeResult
	for {
		resp, err := dmx.Next()
		if err != nil {
			c.failPending(gen, fmt.Errorf("%w: %w", ErrConnBroken, err))
			return
		}
		hdr, env, hdrErr := protocol.DecodeFrame(resp)
		c.noteLoad(env.Load)
		if env.Hints&protocol.HintPackedBody != 0 {
			c.peerPacks.Store(true)
		}
		if env.Hints&protocol.HintChunks != 0 {
			c.peerChunks.Store(true)
		}
		c.mu.Lock()
		ch, ok := c.pending[env.Seq]
		if ok {
			delete(c.pending, env.Seq)
		}
		c.mu.Unlock()
		if !ok {
			err := fmt.Errorf("response for unknown stream %d", env.Seq)
			switch eh, isErr := hdr.(*protocol.ErrorHeader); {
			case hdrErr != nil:
				err = fmt.Errorf("undecodable response header: %w", hdrErr)
			case isErr:
				// An error frame addressed to no stream is about the
				// connection itself (refused at the connection cap, a
				// request header the server could not decode): keep its
				// message as the cause.
				err = c.serverError(eh)
			}
			c.failPending(gen, fmt.Errorf("%w: %w", ErrConnBroken, err))
			return
		}
		// A header that named its stream but did not decode whole, or a
		// chunked body that does not match its checksum, fails only that
		// stream: the frame was complete.
		ch <- muxReply{msg: resp, hdr: hdr, err: cmp.Or(hdrErr, resp.Err)}
	}
}

// failPending marks the Conn broken with cause err and delivers err to
// every in-flight stream. gen names the socket the failure belongs to: a
// failure reported for an already-retired socket is a no-op — its streams
// were drained when its reader exited, and the streams now pending belong
// to the healthy replacement a concurrent Redial installed.
func (c *Conn) failPending(gen uint64, err error) {
	c.mu.Lock()
	if c.gen != gen {
		c.mu.Unlock()
		return
	}
	if c.broken == nil {
		c.broken = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan muxReply)
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- muxReply{err: err}
	}
}

// exchange runs one logical stream: acquire a stream slot, register the
// reply channel under seq, write the request, then wait for the reader to
// deliver the matching response. The request goes in chunks when the server
// reads them and its body is over protocol.ChunkThreshold, or when produce
// makes the body as it is sent (the caller has seen the server's
// HintChunks); otherwise whole. The request timeout covers the write and the
// wait together, so neither a peer that stops reading nor one that never
// answers can hang the caller.
//
// Any I/O failure — a short write, a deadline expiring while a frame is
// mid-wire — leaves the stream position unknown for every sibling too, so
// the whole Conn is marked broken and its socket closed: the next read
// could otherwise interpret a stale response's leftover bytes as a frame
// header. A clean MsgError response is a complete frame and does NOT break
// the connection.
func (c *Conn) exchange(req protocol.Message, seq uint64, produce func(send func([]byte) error) error) (muxReply, error) {
	slots := c.slots
	slots <- struct{}{}
	defer func() { <-slots }()

	ch := make(chan muxReply, 1)
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return muxReply{}, err
	}
	c.pending[seq] = ch
	timeout := c.timeout
	rw, fw, gen := c.rw, c.fw, c.gen
	c.mu.Unlock()

	var (
		expired  <-chan time.Time
		deadline time.Time
	)
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired, deadline = timer.C, time.Now().Add(timeout)
	}
	var err error
	if produce != nil || c.peerChunks.Load() && len(req.Body) > protocol.ChunkThreshold {
		err = fw.WriteChunked(req, seq, produce, deadline)
	} else {
		err = fw.Write(req, deadline)
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrConnBroken, err)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			// The peer hung up. If it said why first (an error frame
			// refusing the connection), the reader is about to fail this
			// stream with that reason: prefer it to the bare write error.
			select {
			case r := <-ch:
				if r.err != nil {
					err = r.err
				}
			case <-time.After(hangupGrace):
			}
		}
		// Close the socket this frame went out on (not c.rw, which a
		// concurrent Redial may have already replaced) so its reader
		// unwinds the siblings.
		rw.Close() //nolint:errcheck // already failing
		c.failPending(gen, err)
		return muxReply{}, err
	}

	select {
	case r := <-ch:
		if r.err != nil {
			return muxReply{}, r.err
		}
		if eh, ok := r.hdr.(*protocol.ErrorHeader); ok {
			return muxReply{}, c.serverError(eh)
		}
		return r, nil
	case <-expired:
		err := fmt.Errorf("%w: request %d timed out after %v", ErrConnBroken, seq, timeout)
		rw.Close() //nolint:errcheck // deliberate teardown
		c.failPending(gen, err)
		return muxReply{}, err
	}
}

// call runs one request/response exchange, the part every request type
// shares: mint the stream's Seq, frame hdr(seq) with body, exchange, and
// check the response type; the response comes back with the header the
// reader decoded, whose type H is respType's. what names the request in
// errors.
func call[H any](c *Conn, what string, reqType, respType protocol.MsgType, hdr func(seq uint64) any, body []byte) (protocol.Message, *H, error) {
	return callProduced[H](c, what, reqType, respType, hdr, body, nil)
}

// callProduced is call with a body that produce, when it is non-nil, makes
// as it is sent (exchange).
func callProduced[H any](c *Conn, what string, reqType, respType protocol.MsgType, hdr func(seq uint64) any, body []byte, produce func(send func([]byte) error) error) (protocol.Message, *H, error) {
	seq := c.seq.Add(1)
	req, err := protocol.Encode(reqType, hdr(seq), body)
	if err != nil {
		return protocol.Message{}, nil, err
	}
	r, err := c.exchange(req, seq, produce)
	if err != nil {
		return protocol.Message{}, nil, fmt.Errorf("client: %s: %w", what, err)
	}
	out, ok := r.hdr.(*H)
	if r.msg.Type != respType || !ok {
		return protocol.Message{}, nil, fmt.Errorf("client: %s: unexpected response %s", what, r.msg.Type)
	}
	return r.msg, out, nil
}

// Ping probes the server's install state and current scheduling load.
func (c *Conn) Ping() (installed bool, load *protocol.LoadHint, err error) {
	_, pong, err := call[protocol.PongHeader](c, "ping", protocol.MsgPing, protocol.MsgPong,
		func(seq uint64) any { return protocol.PingHeader{Seq: seq} }, nil)
	if err != nil {
		return false, nil, err
	}
	return pong.Installed, pong.Load, nil
}

// preSend ships one pre-send request — weights, made by produce as they are
// sent when it is non-nil, or a reference when hdr is RefOnly — and checks
// that the ACK names the same model.
func (c *Conn) preSend(what string, hdr protocol.ModelPreSendHeader, weights []byte, produce func(send func([]byte) error) error) (protocol.AckHeader, error) {
	_, ack, err := callProduced[protocol.AckHeader](c, what, protocol.MsgModelPreSend, protocol.MsgAck,
		func(seq uint64) any { hdr.Seq = seq; return hdr }, weights, produce)
	if err != nil {
		return protocol.AckHeader{}, err
	}
	if ack.ModelName != hdr.ModelName {
		return *ack, fmt.Errorf("client: %s: ACK names %q", what, ack.ModelName)
	}
	return *ack, nil
}

// PreSend is what one PreSendModel did.
type PreSend struct {
	// Uploaded is the size of the weight body that crossed the link — packed
	// when the server decodes packed weights, else the raw blob; zero when
	// the server answered the offered key itself.
	Uploaded int64
	// Uplink is how long the link took to carry the upload: its round trip
	// less the ack's span root, the server's share once the body was in.
	Uplink time.Duration
	// Resolve is the server's span for resolving the offer — registry
	// locate and peer fetches beneath it — when a trace ID was stamped.
	Resolve *protocol.SpanNode
}

// PreSendModel gets one model to the edge server and waits for the ACK
// (§III.B.1). It encodes the weights and hashes them into the model's
// content key (nn.Fingerprint) in one pass, and offers the spec and key
// first: a server that holds the model — or, fleet-joined, fetches it from a
// peer — ACKs at once, and only a NeedBlob answer or a clean refusal sends
// the weights, packed (nn.PackWeights) when the by-reference ack carried
// protocol.HintPackedWeights. To a server that also reads chunks
// (protocol.HintChunks) a large blob goes in segments, packed one while the
// ones before it are on the wire and decoded by the server as they arrive.
// A non-empty traceID is stamped on the offer, and the server's resolve span
// comes back in the report, so a roam handoff's pre-sends join the client's
// trace under one ID.
func (c *Conn) PreSendModel(appID, name string, model *nn.Network, traceID string) (PreSend, error) {
	spec, err := model.SpecJSON()
	if err != nil {
		return PreSend{}, fmt.Errorf("client: model %q: %w", name, err)
	}
	blob, key := model.KeyedWeightBlob()
	ack, err := c.preSend(fmt.Sprintf("pre-send %q by reference", name), protocol.ModelPreSendHeader{
		AppID: appID, ModelName: name, Spec: spec,
		BlobKey: key,
		RefOnly: true,
		TraceID: traceID,
	}, nil, nil)
	var out PreSend
	if traceID != "" {
		out.Resolve = ack.Span
	}
	switch {
	case err == nil && !ack.NeedBlob:
		return out, nil
	case err != nil && !cleanServerError(err):
		return PreSend{}, err
	}
	// The server does not hold the model, or refused the offer on an intact
	// stream: upload it.
	hdr := protocol.ModelPreSendHeader{AppID: appID, ModelName: name, Spec: spec}
	body := blob
	var (
		produce func(send func([]byte) error) error
		// The link's clock does not run while the sender waits for the
		// packer: it starts when the first body byte is ready to go, and
		// stops while a later segment is still being packed.
		start  time.Time
		waited time.Duration
	)
	switch {
	case ack.Hints&protocol.HintPackedWeights == 0:
	case ack.Hints&protocol.HintChunks != 0 && len(blob) > protocol.ChunkThreshold:
		hdr.Encoding, hdr.PlainLen, hdr.Segment = protocol.EncodingPacked, int64(len(blob)), nn.WeightSegment
		body, produce = nil, packSegments(blob, &out.Uploaded, &start, &waited)
	default:
		hdr.Encoding, hdr.PlainLen = protocol.EncodingPacked, int64(len(blob))
		nn.PackWeights(blob, 0, func(b []byte) error { body = b; return nil }) //nolint:errcheck // one segment, in memory
	}
	if produce == nil {
		hdr.BodyCRC, out.Uploaded = protocol.BodyChecksum(body), int64(len(body))
	}
	start = time.Now()
	ack, err = c.preSend(fmt.Sprintf("pre-send %q", name), hdr, body, produce)
	if err != nil {
		return out, err
	}
	out.Uplink = time.Since(start) - waited - ack.Span.Duration()
	return out, nil
}

// packSegments is the producer of blob's packed body in segments: one
// goroutine packs them, at most four ahead of the one being sent. The bytes
// sent add up in *sent, *first is set when the first segment is ready, and
// *waited adds up how long the sender then waited for later ones.
func packSegments(blob []byte, sent *int64, first *time.Time, waited *time.Duration) func(send func([]byte) error) error {
	return func(send func([]byte) error) error {
		segs, stop := make(chan []byte, 4), make(chan struct{})
		var packErr error
		go func() {
			defer close(segs)
			packErr = nn.PackWeights(blob, nn.WeightSegment, func(b []byte) error {
				select {
				case segs <- b:
					return nil
				case <-stop:
					return errors.New("client: upload stopped")
				}
			})
		}()
		var err error
		for {
			asked := time.Now()
			seg, ok := <-segs
			if !ok {
				break
			}
			if err != nil {
				continue // the packer stops at its next segment
			}
			if *sent == 0 {
				*first = time.Now()
			} else {
				*waited += time.Since(asked)
			}
			*sent += int64(len(seg))
			if err = send(seg); err != nil {
				close(stop)
			}
		}
		return cmp.Or(err, packErr)
	}
}

// cleanServerError reports whether err is the server's verdict on one
// request — a complete error frame on a healthy stream — rather than an
// overload shed or a broken connection. Only such an error is worth
// answering with a different request to the same server.
func cleanServerError(err error) bool {
	return errors.Is(err, ErrServerError) && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrConnBroken)
}

// OffloadSnapshot ships an encoded snapshot and returns the encoded result
// snapshot — the whole post-execution state. It is the raw form of an
// offload, for callers that hold only bytes and state the wire form
// themselves; an Offloader holds the snapshot it sent, asks for a result delta
// instead, and picks the form from what it has measured of the link. With
// compress set, the snapshot travels packed (protocol.EncodingPacked) if that
// shrinks it, and the server mirrors the encoding in its response; the
// returned bytes are always the plain result text. WireBytes reports the
// on-the-wire size of the shipped body.
func (c *Conn) OffloadSnapshot(appID string, encoded []byte, compress bool) (result []byte, wireBytes int64, err error) {
	body := requestBody{wire: encoded}
	if compress {
		if body, err = packedBody(new([]byte), encoded); err != nil {
			return nil, 0, err
		}
	}
	reply, err := c.offloadBody("", appID, body)
	return reply.Result, reply.WireBytes, err
}

// requestBody is a snapshot request's body in the form it travels.
type requestBody struct {
	// wire is what the frame carries: the snapshot text, or its packed form
	// when encoding says so, with plainLen the text's length.
	wire     []byte
	encoding string
	plainLen int64
	// packing is how long the codec pass took.
	packing time.Duration
}

// packedBody renders encoded under protocol.EncodingPacked in *storage, which
// it grows as needed and leaves for the next call; a body that does not shrink
// by it travels as it is.
func packedBody(storage *[]byte, encoded []byte) (requestBody, error) {
	start := time.Now()
	packed, ok, err := protocol.CompressBody(*storage, encoded, flate.BestSpeed, snapshot.Pack)
	*storage = packed[:0]
	body := requestBody{wire: encoded, packing: time.Since(start)}
	if ok {
		body.wire, body.encoding, body.plainLen = packed, protocol.EncodingPacked, int64(len(encoded))
	}
	return body, err
}

// offloadReply is one snapshot round trip's full outcome, including the
// measurements the trace pipeline consumes.
type offloadReply struct {
	// Result is the plain result body.
	Result []byte
	// RequestBase is the name a result delta must give its base
	// (protocol.SnapshotHeader.RequestBase).
	RequestBase string
	// Encoding is the form the request body travelled in.
	Encoding string
	// WireBytes is the on-the-wire size of the shipped request body;
	// RespBytes the response frame's header+body size.
	WireBytes, RespBytes int64
	// Packing and Unpacking are the client-side body codec times (zero on
	// raw bodies).
	Packing, Unpacking time.Duration
	// RoundTrip spans request write start to response read completion.
	RoundTrip time.Duration
	// TraceID is the ID stamped on the request; Span is the server's span
	// tree for it.
	TraceID string
	Span    *protocol.SpanNode
}

// wireLegs derives the time the round trip spent on the wire. The two clocks
// are never compared directly: the server reports durations only, and wire
// time is the client-observed round trip minus the server's span root, split
// between the upload and download legs proportionally to the bytes each
// moved.
func (r offloadReply) wireLegs() (up, down time.Duration) {
	wire := max(r.RoundTrip-r.Span.Duration(), 0)
	up = wire
	if total := r.WireBytes + r.RespBytes; total > 0 {
		up = wire * time.Duration(r.WireBytes) / time.Duration(total)
	}
	return up, wire - up
}

// offloadBody ships one snapshot body, asking for the result in replyForm
// (protocol.ReplyDelta, or empty for the full result snapshot), and returns
// the plain result body with the round trip's measurements. The reply
// carries the request's trace ID even when the round trip fails.
func (c *Conn) offloadBody(replyForm, appID string, body requestBody) (offloadReply, error) {
	const reqType = protocol.MsgSnapshot
	reply := offloadReply{TraceID: trace.NewID(), Encoding: body.encoding, Packing: body.packing}
	respType := protocol.MsgResultDelta
	if replyForm == "" {
		respType = protocol.MsgResultSnapshot
	}
	rtStart := time.Now()
	resp, hdr, err := call[protocol.SnapshotHeader](c, reqType.String(), reqType, respType, func(seq uint64) any {
		req := protocol.SnapshotHeader{
			AppID: appID, Seq: seq, Encoding: body.encoding, PlainLen: body.plainLen,
			TraceID: reply.TraceID, Reply: replyForm, BodyCRC: protocol.BodyChecksum(body.wire),
			Hints: protocol.HintChunks,
		}
		reply.RequestBase = req.RequestBase(body.wire)
		return req
	}, body.wire)
	reply.RoundTrip = time.Since(rtStart)
	if err != nil {
		return reply, err
	}
	if err := protocol.VerifyBody(resp.Body, hdr.BodyCRC); err != nil {
		// The frame itself was complete — the stream is still aligned — so
		// the connection stays usable; only this result is poisoned.
		return reply, fmt.Errorf("client: %s result: %w", reqType, err)
	}
	reply.Span = hdr.Span
	reply.WireBytes = int64(len(body.wire))
	reply.RespBytes = int64(len(resp.Header) + len(resp.Body))
	decStart := time.Now()
	plain, err := protocol.DecodeBody(nil, resp.Body, hdr.Encoding, hdr.PlainLen, snapshot.Unpack)
	if err != nil {
		return reply, fmt.Errorf("client: %s result: %w", reqType, err)
	}
	if hdr.Encoding != protocol.EncodingRaw {
		reply.Unpacking = time.Since(decStart)
	}
	reply.Result = plain
	return reply, nil
}

// InstallOverlay ships a compressed VM overlay for on-demand installation
// and returns the server-reported synthesis time.
func (c *Conn) InstallOverlay(baseImage string, blob []byte) (time.Duration, error) {
	_, done, err := call[protocol.InstallDoneHeader](c, "install", protocol.MsgInstallOverlay, protocol.MsgInstallDone, func(seq uint64) any {
		return protocol.InstallOverlayHeader{BaseImage: baseImage, Seq: seq}
	}, blob)
	if err != nil {
		return 0, err
	}
	return time.Duration(done.SynthesisMillis) * time.Millisecond, nil
}
