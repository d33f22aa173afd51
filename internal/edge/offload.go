// The server half of one offload (Fig. 3): one handler, one scheduler
// hand-off, one execution routine, one response framer. Every request is a
// full snapshot; the result goes home as a delta against it, or whole when
// the request asks for no delta.
package edge

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
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
	batch  int
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
// task's queue wait, execution time (result capture included), and batch
// size.
func (s *Server) scheduleSnapshot(snap *snapshot.Snapshot, tm *svcTiming, size int64) (*snapshot.Snapshot, error) {
	task := sched.NewTask(s.batchKey(snap), snap)
	task.Bytes = size
	v, err := s.runTask(task)
	if err != nil {
		return nil, err
	}
	tm.queue = task.QueueWait()
	tm.exec = task.ExecTime()
	tm.batch = task.BatchSize()
	return v.(*snapshot.Snapshot), nil
}

// execBatch is the scheduler's executor. A chain hop's layer range rides a
// solo key, so it is always a batch of one; everything else is a batch of
// snapshot sessions sharing one batch key.
func (s *Server) execBatch(batch []*sched.Task) []sched.Result {
	if p, ok := batch[0].Payload.(*chainWork); ok {
		out, err := p.net.ForwardRange(p.in, p.from, p.to)
		return []sched.Result{{Value: out, Err: err}}
	}
	return s.execute(batch)
}

// execute is the one execution routine: restore every session, run the
// batched handler iff there is more than one, drain each app's event loop,
// capture each result (§III.A). A batch whose batched handler cannot run or
// fails has published nothing, so every member is re-executed through this
// same routine as a batch of one — which is always correct, and gives each
// member its own error.
func (s *Server) execute(batch []*sched.Task) []sched.Result {
	results := make([]sched.Result, len(batch))
	apps := make([]*webapp.App, len(batch))
	for i, t := range batch {
		apps[i], results[i].Err = s.restoreApp(t.Payload.(*snapshot.Snapshot))
	}
	if len(batch) > 1 {
		if err := s.runBatchedHandler(apps, results); err != nil {
			s.log.Debug("edge: batch re-executed solo", obs.F("size", len(batch)), obs.Err(err))
			for i := range batch {
				results[i] = s.execute(batch[i : i+1])[0]
			}
			return results
		}
	}
	for i, app := range apps {
		if results[i].Err != nil {
			continue
		}
		start := time.Now()
		steps, err := app.Run(maxHandlerSteps)
		if err != nil {
			results[i].Err = fmt.Errorf("execute snapshot: %w", err)
			continue
		}
		if s.log.Enabled(obs.LevelDebug) {
			s.log.Debug("edge: handlers ran", obs.F("appId", app.ID()), obs.F("steps", steps),
				obs.F("micros", time.Since(start).Microseconds()))
		}
		results[i].Value, results[i].Err = snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
	}
	return results
}

// runBatchedHandler pops the shared pending event from every restored app
// and runs the code bundle's batched handler over all of them once. Any
// error — a member that failed to restore, a member whose state no longer
// has the batchable shape, the handler itself — means no app may be used.
func (s *Server) runBatchedHandler(apps []*webapp.App, restored []sched.Result) error {
	evs := make([]webapp.Event, len(apps))
	var fn webapp.BatchHandlerFunc
	for i, app := range apps {
		if err := restored[i].Err; err != nil {
			return err
		}
		ev, handler, ok := batchableEvent(app.PendingEvents(), app.Bindings())
		if ok {
			fn, ok = app.Registry().BatchHandler(handler)
		}
		if !ok {
			return fmt.Errorf("app %q has no batchable event", app.ID())
		}
		app.PopEvent()
		evs[i] = ev
	}
	start := time.Now()
	if err := fn(apps, evs); err != nil {
		return err
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("edge: batch ran", obs.F("sessions", len(apps)), obs.F("micros", time.Since(start).Microseconds()))
	}
	return nil
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
	if s.cfg.Quality != "" {
		if err := webapp.SetQuality(app, s.cfg.Quality); err != nil {
			return nil, err
		}
	}
	return app, nil
}

// batchableEvent reports the single pending payload-free event and the one
// handler bound to it — the shape a batched execution requires — of a
// snapshot before restore, or of a restored app.
func batchableEvent(pending []webapp.Event, bindings []webapp.Binding) (webapp.Event, string, bool) {
	if len(pending) != 1 || pending[0].Payload != nil {
		return webapp.Event{}, "", false
	}
	ev := pending[0]
	handler, matches := "", 0
	for _, b := range bindings {
		if b.Target == ev.Target && b.Event == ev.Type {
			handler, matches = b.Handler, matches+1
		}
	}
	return ev, handler, matches == 1
}

// soloKey returns a unique batch key, for sessions that must not coalesce.
func (s *Server) soloKey() string {
	return "solo:" + strconv.FormatUint(s.soloSeq.Add(1), 10)
}

// batchKey derives the coalescing key for a snapshot session. Sessions get
// the same key — and may be batched into one forward pass — only when they
// run the same handler of the same code bundle on byte-identical model
// files: the key hashes the code hash, the pending event and its resolved
// handler, the fingerprints of the app's pre-sent models, the model
// references the snapshot carries, and the app's string-valued globals
// (which select the model the handler uses).
func (s *Server) batchKey(snap *snapshot.Snapshot) string {
	ev, handler, ok := batchableEvent(snap.Pending, snap.Bindings)
	if !ok {
		return s.soloKey()
	}
	registry, ok := s.cfg.Catalog.Lookup(snap.CodeHash)
	if !ok {
		return s.soloKey()
	}
	if _, ok := registry.BatchHandler(handler); !ok {
		return s.soloKey()
	}
	h := sha256.New()
	for _, part := range []string{snap.CodeHash, ev.Target, ev.Type, handler, s.store.FingerprintSet(snap.AppID)} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	for _, m := range snap.Models {
		h.Write([]byte(m.Name))
		h.Write(m.Spec)
		h.Write([]byte{0})
	}
	var strs []string
	for name, v := range snap.Globals {
		if sv, ok := v.(string); ok {
			strs = append(strs, name+"="+sv)
		}
	}
	sort.Strings(strs)
	for _, kv := range strs {
		h.Write([]byte(kv))
		h.Write([]byte{0})
	}
	return "b:" + hex.EncodeToString(h.Sum(nil)[:12])
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
		BatchSize:        tm.batch,
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
			obs.F("batchSize", tm.batch),
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
