// The server half of one offload (Fig. 3): one handler, one scheduler
// hand-off, one execution routine, one response framer. Every request is a
// full snapshot; the result goes home as a delta against it, or whole when
// the request asks for no delta.
package edge

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/sched"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
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
func (s *Server) handleOffload(msg protocol.Message, hdr *protocol.SnapshotHeader, streamWait time.Duration) (protocol.Message, error) {
	if err := protocol.VerifyBody(msg.Body, hdr.BodyCRC); err != nil {
		return protocol.Message{}, err
	}
	tm := &svcTiming{streamWait: streamWait}
	decodeStart := time.Now()
	plain, err := protocol.DecodeBody(msg.Body, hdr.Encoding, hdr.PlainLen, snapshot.Unpack)
	if err != nil {
		return protocol.Message{}, err
	}
	snap, err := snapshot.Decode(plain)
	if err != nil {
		return protocol.Message{}, err
	}
	tm.decode = time.Since(decodeStart)
	result, err := s.scheduleSnapshot(snap, tm, int64(len(plain)))
	if err != nil {
		return protocol.Message{}, err
	}
	tm.encodeStart = time.Now()
	s.snapshotsExecuted.Inc()
	respType := protocol.MsgResultSnapshot
	var body []byte
	if hdr.Reply == "" {
		body, err = result.Encode()
	} else {
		// The client patches the snapshot it sent, so the request is its own
		// base, named without a pass over its body.
		respType = protocol.MsgResultDelta
		var resultDelta *snapshot.Delta
		if resultDelta, err = snapshot.Diff(snap, result, hdr.RequestBase(msg.Body)); err == nil {
			body, err = resultDelta.Encode()
		}
	}
	if err != nil {
		return protocol.Message{}, fmt.Errorf("encode result: %w", err)
	}
	return s.snapshotResponse(respType, snap.AppID, *hdr, body, tm)
}

// svcTiming accumulates one request's server-side stage durations as it
// moves through decode, the admission queue, execution, and result encode.
type svcTiming struct {
	decode time.Duration
	queue  time.Duration
	exec   time.Duration
	// encodeStart is stamped by the handler once the scheduler returns the
	// result; snapshotResponse closes the span after any packing.
	encodeStart time.Time
	// streamWait is the stream-semaphore wait.
	streamWait time.Duration
}

// runTask submits one task to the scheduler and waits for its result.
// Admission failures are wrapped as overload errors so the connection
// handler can answer with the overload marker and load hint that redirect
// the client to local execution.
func (s *Server) runTask(task *sched.Task) (any, error) {
	if err := s.sched.Submit(task); err != nil {
		return nil, &overloadError{err: err, overloaded: errors.Is(err, sched.ErrQueueFull)}
	}
	v, err := task.Wait()
	if errors.Is(err, sched.ErrClosed) {
		return nil, &overloadError{err: err}
	}
	return v, err
}

// scheduleSnapshot runs one decoded snapshot session through the scheduler
// and returns the captured post-execution state; on success tm receives the
// task's queue wait and execution time (result capture included).
func (s *Server) scheduleSnapshot(snap *snapshot.Snapshot, tm *svcTiming, size int64) (*snapshot.Snapshot, error) {
	task := sched.NewTask("", snap)
	task.Bytes = size
	v, err := s.runTask(task)
	if err != nil {
		return nil, err
	}
	tm.queue = task.QueueWait()
	tm.exec = task.ExecTime()
	return v.(*snapshot.Snapshot), nil
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

// execute is the one execution routine: restore the session, drain the
// app's event loop, capture the result (§III.A).
func (s *Server) execute(snap *snapshot.Snapshot) (*snapshot.Snapshot, error) {
	app, err := s.restoreApp(snap)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	steps, err := app.Run(maxHandlerSteps)
	if err != nil {
		return nil, fmt.Errorf("execute snapshot: %w", err)
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("edge: handlers ran", obs.F("appId", app.ID()), obs.F("steps", steps),
			obs.F("micros", time.Since(start).Microseconds()))
	}
	return snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
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
// than a segment's worth — and closes out the request's server-side trace: the
// spans feed the server recorder and trace log and ride back to the client in
// the response header.
func (s *Server) snapshotResponse(t protocol.MsgType, appID string, req protocol.SnapshotHeader, body []byte, tm *svcTiming) (protocol.Message, error) {
	encoding, plainLen := protocol.EncodingRaw, int64(0)
	if req.Encoding == protocol.EncodingPacked && len(body) > packedReplyMin {
		packed, ok, err := protocol.CompressBody(nil, body, snapshot.Pack)
		if err != nil {
			return protocol.Message{}, err
		}
		if ok {
			encoding, plainLen, body = protocol.EncodingPacked, int64(len(body)), packed
		}
	}
	encode := time.Since(tm.encodeStart)
	st := &protocol.ServerTrace{
		TraceID:          req.TraceID,
		DecodeMicros:     tm.decode.Microseconds(),
		QueueMicros:      tm.queue.Microseconds(),
		ExecuteMicros:    tm.exec.Microseconds(),
		EncodeMicros:     encode.Microseconds(),
		StreamWaitMicros: tm.streamWait.Microseconds(),
	}
	s.observeTrace(appID, req.Seq, tm, encode, st)
	return protocol.Encode(t, protocol.SnapshotHeader{
		AppID: appID, Seq: req.Seq, Encoding: encoding, PlainLen: plainLen,
		Hints:       protocol.HintPackedBody,
		BodyCRC:     protocol.BodyChecksum(body),
		Load:        s.loadHint(),
		ServerTrace: st,
	}, body)
}

// observeTrace folds one completed request's spans into the server's stage
// histograms and, when configured, appends a JSON line to the trace log.
// Decode and encode fold into the execute stage, mirroring how the client
// merges the server report; the full split survives in the trace log.
func (s *Server) observeTrace(appID string, seq uint64, tm *svcTiming, encode time.Duration, st *protocol.ServerTrace) {
	s.rec.Observe(trace.StageQueue, tm.queue)
	s.rec.Observe(trace.StageExecute, tm.decode+tm.exec+encode)
	s.rec.Observe(trace.StageStreamWait, tm.streamWait)
	total := tm.streamWait + tm.decode + tm.queue + tm.exec + encode
	if s.cfg.SLO != nil {
		s.cfg.SLO.Observe(total)
		// A request that blew the objective is exactly what the flight
		// recorder exists for: capture its full span tree while the SLO
		// burn accounting is still catching up.
		if s.cfg.Flight != nil && total > s.cfg.SLO.Objective() {
			s.cfg.Flight.Record(telemetry.FlightEntry{
				TraceID: st.TraceID,
				Reason:  telemetry.FlightSlow,
				Note:    fmt.Sprintf("app %s seq %d over objective %v", appID, seq, s.cfg.SLO.Objective()),
				Span:    s.serveSpan(appID, tm, encode, total),
			})
		}
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("offload served",
			obs.TraceID(st.TraceID),
			obs.F("appId", appID),
			obs.F("seq", seq),
			obs.F("queueMicros", tm.queue.Microseconds()),
			obs.F("executeMicros", tm.exec.Microseconds()),
		)
	}
	if s.cfg.TraceLog == nil {
		return
	}
	line, err := json.Marshal(struct {
		TraceID string `json:"traceId,omitempty"`
		AppID   string `json:"appId"`
		Seq     uint64 `json:"seq"`
		*protocol.ServerTrace
	}{TraceID: st.TraceID, AppID: appID, Seq: seq, ServerTrace: st})
	if err != nil {
		return
	}
	s.traceLogMu.Lock()
	defer s.traceLogMu.Unlock()
	if _, err := s.cfg.TraceLog.Write(append(line, '\n')); err != nil {
		s.log.Warn("edge: trace log write failed", obs.Err(err))
	}
}

// serveSpan renders one request's svcTiming as a span tree: the serve root
// with one child per pipeline stage.
func (s *Server) serveSpan(appID string, tm *svcTiming, encode, total time.Duration) *protocol.SpanNode {
	root := &protocol.SpanNode{
		Op:     "serve",
		Addr:   s.cfg.AdvertiseAddr,
		Micros: total.Microseconds(),
		Detail: appID,
	}
	if tm.streamWait > 0 {
		root.Children = append(root.Children,
			&protocol.SpanNode{Op: "stream_wait", Micros: tm.streamWait.Microseconds()})
	}
	root.Children = append(root.Children,
		&protocol.SpanNode{Op: "decode", Micros: tm.decode.Microseconds()},
		&protocol.SpanNode{Op: "queue", Micros: tm.queue.Microseconds()},
		&protocol.SpanNode{Op: "execute", Micros: tm.exec.Microseconds()},
		&protocol.SpanNode{Op: "encode", Micros: encode.Microseconds()},
	)
	return root
}
