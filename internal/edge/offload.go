// The server half of one offload (Fig. 3): one handler, one scheduler
// hand-off, one execution routine, one response framer. Every request is a
// full snapshot; the result goes home as a delta against it, or whole when
// the request asks for no delta.
package edge

import (
	"compress/flate"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/sched"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
	"websnap/internal/webapp"
)

// maxHandlerSteps bounds one offloaded execution burst so a buggy app
// cannot wedge a server goroutine.
const maxHandlerSteps = 1000

// handleOffload serves MsgSnapshot: decode the pre-execution state, run it
// through the scheduler, and answer in the form the request asked for — what
// the handler changed, as a result delta relative to the pre-execution state,
// or (Reply empty: the raw Conn.OffloadSnapshot API) the full result
// snapshot. Either way nothing of the request outlives it here.
func (s *Server) handleOffload(req *request, hdr *protocol.SnapshotHeader) (protocol.Message, error) {
	// The client patches the state it sent, so the request is its own base,
	// named without a pass over its body.
	base := hdr.RequestBase(req.msg.Body)
	decodeStart := time.Now()
	snap, plainLen, err := decodeRequest(req, hdr)
	if err != nil {
		return protocol.Message{}, err
	}
	req.span.AddStage(protocol.SpanDecode, time.Since(decodeStart))
	task := sched.NewTask("", snap)
	task.Bytes = int64(plainLen)
	v, err := s.runTask(req, task)
	if err != nil {
		return protocol.Message{}, err
	}
	// The handlers are done with the app, so its state is read in place;
	// what they changed is told apart from the decoded request, which
	// restore copied from.
	app := v.(*webapp.App)
	encodeStart := time.Now()
	s.snapshotsExecuted.Inc()
	respType := protocol.MsgResultDelta
	var body []byte
	if hdr.Reply == "" {
		respType = protocol.MsgResultSnapshot
		body, _, err = snapshot.AppendApp(nil, app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
	} else {
		body, err = snapshot.EncodeDiff(snap, app, base)
	}
	if err != nil {
		return protocol.Message{}, fmt.Errorf("encode result: %w", err)
	}
	return s.snapshotResponse(req, respType, snap.AppID, *hdr, body, encodeStart)
}

// decodeRequest checks and decodes a MsgSnapshot request's body, then gives
// its storage — and the inflated text's, when it came packed — back to the
// text pool: the decoded snapshot shares no memory with either.
func decodeRequest(req *request, hdr *protocol.SnapshotHeader) (*snapshot.Snapshot, int, error) {
	body := req.msg.Body
	req.msg.Body = nil
	defer putText(body)
	if err := protocol.VerifyBody(body, hdr.BodyCRC); err != nil {
		return nil, 0, err
	}
	var plain []byte
	if hdr.Encoding == protocol.EncodingPacked {
		plain = getText()
		defer func() { putText(plain) }()
	}
	plain, err := protocol.DecodeBody(plain, body, hdr.Encoding, hdr.PlainLen, snapshot.Unpack)
	if err != nil {
		return nil, 0, err
	}
	snap, err := snapshot.Decode(plain)
	return snap, len(plain), err
}

// maxPooledText is the largest request-text storage the text pool keeps
// (GoogLeNet's request text is 0.8 MB): one outsized body must not pin its
// buffer.
const maxPooledText = 8 << 20

// texts lends storage to request texts — a snapshot request's body as it is
// read off the connection, and its inflated text when it came packed — for
// as long as decoding it takes. Pre-send bodies, which the store may keep,
// never come from it.
var texts sync.Pool // of *[]byte

// getText takes storage from the pool, nil when it is empty. Storage too
// small for the text it is lent to is dropped for a larger slice, which
// comes back in its place.
func getText() []byte {
	if b, ok := texts.Get().(*[]byte); ok {
		return *b
	}
	return nil
}

// putText gives storage back to the pool; nothing may use it afterwards.
func putText(b []byte) {
	if b != nil && cap(b) <= maxPooledText {
		texts.Put(&b)
	}
}

// lendText is the connection reader's storage for frame bodies: snapshot
// requests' come from the text pool, every other frame's are its own.
func lendText(t protocol.MsgType) []byte {
	if t != protocol.MsgSnapshot {
		return nil
	}
	return getText()
}

// runTask submits one task to the scheduler, waits for its result, and adds
// the task's queue wait and execution to the request's span. Admission
// failures are wrapped as overload errors so the connection handler can
// answer with the overload marker and load hint that redirect the client to
// local execution.
func (s *Server) runTask(req *request, task *sched.Task) (any, error) {
	if err := s.sched.Submit(task); err != nil {
		return nil, &overloadError{err: err, overloaded: errors.Is(err, sched.ErrQueueFull)}
	}
	v, err := task.Wait()
	req.span.AddStage(protocol.SpanQueue, task.QueueWait())
	req.span.AddStage(protocol.SpanExecute, task.ExecTime())
	if errors.Is(err, sched.ErrClosed) {
		return nil, &overloadError{err: err}
	}
	return v, err
}

// execTask is the scheduler's executor: a chain hop's layer range, or one
// snapshot session.
func (s *Server) execTask(tasks []*sched.Task) []sched.Result {
	var r sched.Result
	if p, ok := tasks[0].Payload.(*chainWork); ok {
		r.Value, r.Err = p.net.ForwardRange(p.in, p.from, p.to)
	} else {
		r.Value, r.Err = s.execute(tasks[0].Payload.(*snapshot.Snapshot))
	}
	return []sched.Result{r}
}

// execute is the one execution routine: restore the session and drain the
// app's event loop (§III.A). The app comes back as the handlers left it.
func (s *Server) execute(snap *snapshot.Snapshot) (*webapp.App, error) {
	app, err := s.restoreApp(snap)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	steps, err := app.Run(maxHandlerSteps)
	if err != nil {
		return nil, fmt.Errorf("execute snapshot: %w", err)
	}
	if s.log.Enabled(context.TODO(), slog.LevelDebug) {
		s.log.Debug("edge: handlers ran", slog.Any("appId", app.ID()), slog.Any("steps", steps),
			slog.Any("micros", time.Since(start).Microseconds()))
	}
	return app, nil
}

// restoreApp re-creates a running app from an offloaded snapshot. Pre-sent
// models the snapshot does not list are attached from the store too.
func (s *Server) restoreApp(snap *snapshot.Snapshot) (*webapp.App, error) {
	registry, ok := s.cfg.Catalog.Lookup(snap.CodeHash)
	if !ok {
		return nil, fmt.Errorf("unknown app code %q", snap.CodeHash)
	}
	app, err := snapshot.Restore(snap, registry, snapshot.RestoreOptions{
		Models: s.store.Resolver(snap.AppID),
	})
	if err != nil {
		return nil, err
	}
	for _, name := range s.store.Names(snap.AppID) {
		if _, loaded := app.Model(name); !loaded {
			if net, ok := s.store.Get(snap.AppID, name); ok {
				app.LoadModel(name, net)
			}
		}
	}
	return app, nil
}

// packedReplyMin is the smallest result body that mirrors a packed request's
// encoding: anything shorter leaves in the one TCP segment it would leave in
// packed, so a codec pass cannot change its wire time.
const packedReplyMin = 1400

// snapshotResponse frames a result body — packed when the request was (the
// client found the link slow, and decodes what it sends) and the body is more
// than a segment's worth — under the request's finished span.
func (s *Server) snapshotResponse(req *request, t protocol.MsgType, appID string, hdr protocol.SnapshotHeader, body []byte, encodeStart time.Time) (protocol.Message, error) {
	encoding, plainLen := protocol.EncodingRaw, int64(0)
	if hdr.Encoding == protocol.EncodingPacked && len(body) > packedReplyMin {
		packed, ok, err := protocol.CompressBody(nil, body, flate.BestSpeed, snapshot.Pack)
		if err != nil {
			return protocol.Message{}, err
		}
		if ok {
			encoding, plainLen, body = protocol.EncodingPacked, int64(len(body)), packed
		}
	}
	req.span.AddStage(protocol.SpanEncode, time.Since(encodeStart))
	return protocol.Encode(t, protocol.SnapshotHeader{
		AppID: appID, Seq: hdr.Seq, Encoding: encoding, PlainLen: plainLen,
		Hints:   protocol.HintPackedBody | protocol.HintChunks,
		TraceID: hdr.TraceID,
		BodyCRC: protocol.BodyChecksum(body),
		Load:    s.loadHint(),
		Span:    s.served(req, appID),
	}, body)
}

// served closes the span of a snapshot offload or a chain hop and feeds that
// one tree to every consumer: the stage histograms, the SLO, the
// slow-request flight capture and the trace log. The caller sends the same
// tree home on the response.
func (s *Server) served(req *request, appID string) *protocol.SpanNode {
	root := req.finish()
	// Only direct children count: a downstream hop grafted under a chain
	// hop is another server's work.
	for _, c := range root.Children {
		if h := s.stages[c.Op]; h != nil {
			h.Observe(c.Duration())
		}
	}
	traceID, seq := req.env.TraceID, req.env.Seq
	if s.cfg.SLO != nil {
		s.cfg.SLO.Observe(root.Duration())
		// A request that blew the objective is exactly what the flight
		// recorder exists for: capture its span tree while the SLO burn
		// accounting is still catching up.
		if s.cfg.Flight != nil && root.Duration() > s.cfg.SLO.Objective() {
			s.cfg.Flight.Record(telemetry.FlightEntry{
				TraceID: traceID,
				Reason:  telemetry.FlightSlow,
				Note:    fmt.Sprintf("app %s seq %d over objective %v", appID, seq, s.cfg.SLO.Objective()),
				Span:    root,
			})
		}
	}
	if s.log.Enabled(context.TODO(), slog.LevelDebug) {
		s.log.Debug("request served", obs.TraceID(traceID), slog.Any("op", root.Op),
			slog.Any("appId", appID), slog.Any("seq", seq), slog.Any("micros", root.Micros))
	}
	if s.cfg.TraceLog == nil {
		return root
	}
	line, err := json.Marshal(struct {
		TraceID string             `json:"traceId,omitempty"`
		AppID   string             `json:"appId"`
		Seq     uint64             `json:"seq"`
		Span    *protocol.SpanNode `json:"span"`
	}{traceID, appID, seq, root})
	if err != nil {
		return root
	}
	s.traceLogMu.Lock()
	defer s.traceLogMu.Unlock()
	if _, err := s.cfg.TraceLog.Write(append(line, '\n')); err != nil {
		s.log.Warn("edge: trace log write failed", obs.Err(err))
	}
	return root
}
