// Chain relay: the edge server's role in multi-hop partial inference.
// A MsgChainExec frame carries the full hop manifest plus this hop's
// position; the server executes its layer range on the pre-sent model,
// then either answers with the output tensor (terminal hop) or relays the
// boundary tensor to the next hop and forwards that hop's result upstream
// unchanged, grafting the downstream span subtree under its own so the
// client ends up with one parented trace: client root → hop1 → hop2 → …
package edge

import (
	"errors"
	"fmt"
	"time"

	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/sched"
	"websnap/internal/tensor"
	"websnap/internal/trace"
)

// chainRelayTimeout bounds one hop-to-hop relay round trip (dial, send,
// downstream execution of the whole remaining chain, response). Generous
// because it covers every downstream hop, not just the next one.
const chainRelayTimeout = 15 * time.Second

// chainError locates a chain failure for the client's re-planner: hop is
// the 1-based manifest index of the hop that failed. A relay that cannot
// reach its downstream reports the downstream's index; an error answered
// by a deeper hop keeps that hop's own index as it propagates upstream.
type chainError struct {
	err error
	hop int
}

func (e *chainError) Error() string { return e.err.Error() }
func (e *chainError) Unwrap() error { return e.err }

// chainWork is the scheduler payload of one chain hop's layer range; it
// always rides a solo batch key (boundary tensors of distinct chains are
// never coalescible).
type chainWork struct {
	net      *nn.Network
	in       *tensor.Tensor
	from, to int
}

// handleChainExec executes this server's layer range of a multi-hop chain
// and relays or answers. streamWait is the stream-semaphore wait, folded
// into the hop's span like any other offload.
func (s *Server) handleChainExec(msg protocol.Message, hdr *protocol.ChainExecHeader, streamWait time.Duration) (protocol.Message, error) {
	start := time.Now()
	if hdr.Hop < 0 || hdr.Hop >= len(hdr.Hops) {
		return protocol.Message{}, fmt.Errorf("chain: hop %d out of manifest range %d", hdr.Hop, len(hdr.Hops))
	}
	// Failures from here on are attributable to this hop (1-based).
	self := hdr.Hop + 1
	fail := func(err error) (protocol.Message, error) {
		return protocol.Message{}, &chainError{err: err, hop: self}
	}
	if err := protocol.VerifyBody(msg.Body, hdr.BodyCRC); err != nil {
		return fail(err)
	}
	hop := hdr.Hops[hdr.Hop]
	if hop.From < 0 || hop.From >= hop.To {
		return fail(fmt.Errorf("chain: hop %d has empty layer range [%d, %d)", self, hop.From, hop.To))
	}
	vals, err := protocol.BytesFloat32(msg.Body)
	if err != nil {
		return fail(err)
	}
	in, err := tensor.FromSlice(vals, hdr.Shape...)
	if err != nil {
		return fail(fmt.Errorf("chain: boundary tensor: %w", err))
	}
	model, ok := s.store.Get(hdr.AppID, hdr.ModelName)
	if !ok {
		return fail(fmt.Errorf("chain: model %q not pre-sent for app %q", hdr.ModelName, hdr.AppID))
	}
	out, queued, execed, err := s.scheduleChainRange(model, in, hop)
	if err != nil {
		// Keep any overload marker AND the hop attribution: the client
		// re-plans around a saturated mid-chain server the same way it
		// does around a dead one.
		return fail(err)
	}
	s.chainExecs.Inc()
	span := &protocol.SpanNode{
		Op:     "chain_exec",
		Addr:   s.cfg.AdvertiseAddr,
		Detail: fmt.Sprintf("%s layers [%d,%d)", hdr.ModelName, hop.From, hop.To),
		Children: []*protocol.SpanNode{
			{Op: "queue", Micros: queued.Microseconds()},
			{Op: "execute", Micros: execed.Microseconds()},
		},
	}
	if streamWait > 0 {
		span.Children = append([]*protocol.SpanNode{
			{Op: "stream_wait", Micros: streamWait.Microseconds()}}, span.Children...)
	}
	// Chain hops reuse the queue/execute stage histograms: a relay's layer
	// range is queued and executed like any offload, and the exposition
	// contract forbids inserting new stage labels mid-family.
	s.rec.Observe(trace.StageQueue, queued)
	s.rec.Observe(trace.StageExecute, execed)

	resp := protocol.ChainResultHeader{
		Seq:  hdr.Seq,
		Load: s.loadHint(),
	}
	wantSpan := hdr.TraceID != ""
	if hdr.Hop == len(hdr.Hops)-1 {
		// Terminal hop: answer with the final output tensor.
		body := protocol.Float32Bytes(out.Data())
		resp.Shape = out.Shape()
		resp.BodyCRC = protocol.BodyChecksum(body)
		if wantSpan {
			span.Micros = time.Since(start).Microseconds()
			resp.Span = span
		}
		return protocol.Encode(protocol.MsgChainResult, resp, body)
	}
	// Mid-chain: relay the boundary tensor to the next hop and forward its
	// result upstream byte-for-byte (re-encoding would risk the chain's
	// bit-identity bar for no gain).
	down, downHdr, err := s.relayChain(out, *hdr)
	if err != nil {
		s.chainRelayFailures.Inc()
		var ce *chainError
		if errors.As(err, &ce) {
			// A deeper hop already attributed the failure; propagate as-is.
			return protocol.Message{}, err
		}
		// Transport-level failure reaching the downstream hop: report the
		// downstream's index so the re-planner excludes the right server.
		return protocol.Message{}, &chainError{err: err, hop: self + 1}
	}
	s.chainRelays.Inc()
	resp.Shape = downHdr.Shape
	resp.BodyCRC = downHdr.BodyCRC
	if wantSpan {
		if downHdr.Span != nil {
			span.Children = append(span.Children, downHdr.Span)
		}
		span.Micros = time.Since(start).Microseconds()
		resp.Span = span
	}
	return protocol.Encode(protocol.MsgChainResult, resp, down)
}

// scheduleChainRange runs one hop's layer range through the scheduler under
// a solo key, so the client sees the same saturated-server signal as for a
// snapshot offload.
func (s *Server) scheduleChainRange(model *nn.Network, in *tensor.Tensor, hop protocol.ChainHop) (*tensor.Tensor, time.Duration, time.Duration, error) {
	task := sched.NewTask(s.soloKey(), &chainWork{net: model, in: in, from: hop.From, to: hop.To})
	task.Bytes = int64(4 * in.Len())
	v, err := s.runTask(task)
	if err != nil {
		return nil, 0, 0, err
	}
	return v.(*tensor.Tensor), task.QueueWait(), task.ExecTime(), nil
}

// relayChain sends the boundary tensor to the next hop over a dedicated
// peer connection and returns the downstream result body and header. An
// error answered by the downstream propagates as a chainError carrying the
// deepest failed hop's index.
func (s *Server) relayChain(boundary *tensor.Tensor, hdr protocol.ChainExecHeader) ([]byte, protocol.ChainResultHeader, error) {
	next := hdr.Hops[hdr.Hop+1]
	conn, err := s.dialPeer(next.Addr, chainRelayTimeout)
	if err != nil {
		return nil, protocol.ChainResultHeader{}, fmt.Errorf("chain: dial next hop %s: %w", next.Addr, err)
	}
	defer conn.Close()
	body := protocol.Float32Bytes(boundary.Data())
	req := protocol.ChainExecHeader{
		AppID:     hdr.AppID,
		ModelName: hdr.ModelName,
		Seq:       hdr.Seq,
		Hop:       hdr.Hop + 1,
		Hops:      hdr.Hops,
		Shape:     boundary.Shape(),
		TraceID:   hdr.TraceID,
		BodyCRC:   protocol.BodyChecksum(body),
	}
	msg, err := protocol.Encode(protocol.MsgChainExec, req, body)
	if err != nil {
		return nil, protocol.ChainResultHeader{}, err
	}
	var rh protocol.ChainResultHeader
	resp, err := protocol.Call(conn, chainRelayTimeout, msg, protocol.MsgChainResult, &rh)
	var remote *protocol.RemoteError
	if errors.As(err, &remote) {
		failed := remote.ChainHop
		if failed == 0 {
			failed = hdr.Hop + 2 // downstream itself, 1-based
		}
		return nil, protocol.ChainResultHeader{}, &chainError{
			err: fmt.Errorf("chain: hop %s: %s", next.Addr, remote.Message),
			hop: failed,
		}
	}
	if err != nil {
		return nil, protocol.ChainResultHeader{}, fmt.Errorf("chain: relay to %s: %w", next.Addr, err)
	}
	if err := protocol.VerifyBody(resp.Body, rh.BodyCRC); err != nil {
		return nil, protocol.ChainResultHeader{}, fmt.Errorf("chain: result from %s: %w", next.Addr, err)
	}
	return resp.Body, rh, nil
}
