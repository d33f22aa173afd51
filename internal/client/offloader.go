package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
	"websnap/internal/webapp"
)

// ModelToSend names one model to pre-send to the edge server.
type ModelToSend struct {
	// Name is the model's name as loaded in the app.
	Name string
	// Net is the network to ship. For partial inference this is the rear
	// part only.
	Net *nn.Network
}

// Options configures an Offloader.
type Options struct {
	// OffloadEventTypes lists the event types whose handlers are
	// offloaded instead of executed locally (e.g. "click" for full
	// inference, "front_complete" for partial inference per Fig 5).
	OffloadEventTypes []string
	// Models lists the models to pre-send when StartPreSend is called.
	// The developer supplies this list, per §III.B.1 ("the list of the
	// files ... are given by app developers").
	Models []ModelToSend
	// LocalFallback executes the event locally when offloading fails
	// (server unreachable, protocol error). Defaults to false so errors
	// surface in tests; production callers enable it.
	LocalFallback bool
	// ExcludeModels lists models that must never leave the device — the
	// front part of a partially-split DNN (§III.B.2): withholding it
	// both shrinks the snapshot and prevents the server from inverting
	// the feature data back to the input.
	ExcludeModels []string
	// Audit, when non-nil, receives exactly one structured decision event
	// per offload-eligible event the offloader processes: offloaded, fallen
	// back after an error, or surfaced as an error.
	Audit *obs.Auditor
	// AuditPath is the decision path recorded for successful offloads:
	// obs.PathFull (the default) or obs.PathPartial for split-DNN
	// sessions.
	AuditPath obs.DecisionPath
	// SplitLabel names the partition point, recorded on partial-offload
	// decisions.
	SplitLabel string
	// PredictedOffload is the cost model's end-to-end latency prediction
	// for the configured offload path; recorded on successful offload
	// decisions so the audit can quantify prediction error. Zero means no
	// prediction available.
	PredictedOffload time.Duration
	// Flight, when non-nil, receives a flight-recorder entry for every
	// failed and fallen-back offload decision, plus the merged span
	// tree of each roam handoff pre-send — the client-side feed of
	// /debug/flight.
	Flight *telemetry.FlightRecorder
}

// Stats records the transfer sizes of the most recent offload, for
// experiment reporting.
type Stats struct {
	// Offloads counts completed snapshot round trips.
	Offloads int
	// LocalFallbacks counts events executed locally after a failed
	// offload attempt.
	LocalFallbacks int
	// PackedOffloads counts the round trips whose request travelled under
	// protocol.EncodingPacked: the link read slow and the body shrank.
	PackedOffloads int
	// UplinkBytesPerSec is the offloader's estimate of its link to the
	// current server, from the pre-send and the requests so far; zero before
	// the first transfer large enough to tell, and again after Retarget.
	UplinkBytesPerSec float64
	// LastSnapshotBytes is the size of the last shipped snapshot on the
	// wire: the state's text with its typed arrays at 16/3 B per value, or
	// that text's packed form.
	LastSnapshotBytes int64
	// LastResultBytes is the encoded size of the last result as it came
	// home: the result delta, i.e. what the handler changed, not the state
	// it ran on.
	LastResultBytes int64
	// LastModelIncluded reports whether the last offload had to ship
	// model weights inline (offload before ACK, to a server without them).
	LastModelIncluded bool
	// LastInlineModelBytes is the size of model weights shipped inline
	// with the last offload (zero after the ACK has arrived).
	LastInlineModelBytes int64
	// LoadSheds is always zero: the client no longer sheds on a load
	// hint; a full server rejects and the event falls back locally.
	//
	// Deprecated: kept only because benchmark/workload.go and
	// benchmark/layers.go still read it, until a benchmark PR drops them.
	LoadSheds int
	// Redials counts successful in-place reconnects after the connection
	// was marked broken (ErrConnBroken).
	Redials int
	// PreSendBytes is the total model weight bytes actually uploaded
	// (background pre-sends and inline sends; reference hits ship none).
	PreSendBytes int64
	// RefPreSendHits counts model pre-sends the server answered by content
	// key — from its store or a fleet peer — with zero bytes shipped.
	RefPreSendHits int
	// RefPreSendMisses counts model pre-sends whose offered key the server
	// could not resolve, each of which uploaded the weights.
	RefPreSendMisses int
	// LastTiming is the wall-clock phase breakdown of the last offload —
	// the real-path counterpart of the paper's Fig 7.
	LastTiming Timing
	// LastTrace is the merged client+server span trace of the last
	// completed offload (nil before the first).
	LastTrace *trace.Trace
	// LastHandoffSpan is the merged cross-process span tree of the most
	// recent traced handoff pre-send: the client root over the new
	// server's resolve span, which nests the registry locate and any peer
	// fetch — one tree, one trace ID, every process the handoff touched.
	// Nil until a Retarget pre-sends a model.
	LastHandoffSpan *protocol.SpanNode
}

// Timing is the measured wall-clock breakdown of one offload round trip.
type Timing struct {
	// InlineModelSend is the time spent pre-sending un-ACKed models ahead
	// of the snapshot, whether the server answered their keys or took
	// their weights (zero after pre-sending completes).
	InlineModelSend time.Duration
	// CaptureEncode covers snapshot capture plus textual encoding at the
	// client (Fig 7's "Snapshot Capture (C)").
	CaptureEncode time.Duration
	// RoundTrip covers transmission both ways plus everything at the
	// server (restore, DNN execution, result capture).
	RoundTrip time.Duration
	// DecodeApply covers decoding the result delta, patching it into the
	// shipped snapshot and applying that to the app (Fig 7's "Snapshot
	// Restoration (C)").
	DecodeApply time.Duration
}

// Total returns the end-to-end offload time.
func (t Timing) Total() time.Duration {
	return t.InlineModelSend + t.CaptureEncode + t.RoundTrip + t.DecodeApply
}

// Offloader drives a web app with snapshot-based offloading: events of
// designated types are captured into snapshots and executed at the edge
// server; everything else runs locally.
type Offloader struct {
	app  *webapp.App
	conn *Conn
	opts Options

	offloadTypes  map[string]bool
	excludeModels map[string]bool
	// rec aggregates per-stage latencies across this offloader's traces.
	rec *trace.Recorder

	mu      sync.Mutex
	acked   map[string]bool
	ackErrs []error
	stats   Stats
	// uplink is the measured link to the current server; it decides, per
	// request, whether the body travels packed.
	uplink uplinkEstimate
	// handoffTrace, set by Retarget, is the trace ID stamped on the
	// post-handoff pre-sends so the new server's resolution work (registry
	// locate, peer fetch) joins one trace.
	handoffTrace string

	presendWG      sync.WaitGroup
	presendStarted bool

	// packBuf is the storage packed request bodies are built in, kept from
	// one offload to the next (offloads are single-threaded).
	packBuf []byte
}

// NewOffloader wires an app to an edge-server connection.
func NewOffloader(app *webapp.App, conn *Conn, opts Options) (*Offloader, error) {
	if app == nil || conn == nil {
		return nil, errors.New("client: nil app or conn")
	}
	types := make(map[string]bool, len(opts.OffloadEventTypes))
	for _, t := range opts.OffloadEventTypes {
		types[t] = true
	}
	excluded := make(map[string]bool, len(opts.ExcludeModels))
	for _, name := range opts.ExcludeModels {
		excluded[name] = true
	}
	for _, m := range opts.Models {
		if excluded[m.Name] {
			return nil, fmt.Errorf("client: model %q is both pre-sent and excluded", m.Name)
		}
	}
	o := &Offloader{
		app:           app,
		conn:          conn,
		opts:          opts,
		offloadTypes:  types,
		excludeModels: excluded,
		acked:         make(map[string]bool),
		rec:           trace.NewRecorder(),
	}
	// The Conn's demultiplexer feeds its routing latency into the same
	// recorder as the offload stages, so one digest covers both.
	conn.SetTraceRecorder(o.rec)
	return o, nil
}

// TraceRecorder exposes the per-stage latency histograms aggregated over
// every offload this offloader has completed.
func (o *Offloader) TraceRecorder() *trace.Recorder { return o.rec }

// App returns the driven app.
func (o *Offloader) App() *webapp.App { return o.app }

// Retarget points the offloader at a different edge server — the paper's
// mobility scenario (§I): snapshot-based offloading "can readily work on a
// new edge server since it has no dependence on the previous server". The
// one piece of per-server state is reset: model ACKs (the new server has not
// acknowledged any) and the uplink estimate (it is another link). Pre-sending
// restarts if it was started before.
//
// Like the app itself, the offloader is single-threaded: Retarget must not
// race with Step/Offload calls.
func (o *Offloader) Retarget(conn *Conn) error {
	if conn == nil {
		return errors.New("client: retarget to nil conn")
	}
	// Let any in-flight pre-send finish against the old server before
	// swapping; its ACKs are about to be discarded anyway.
	o.presendWG.Wait()
	conn.SetTraceRecorder(o.rec)
	o.mu.Lock()
	o.conn = conn
	o.acked = make(map[string]bool)
	o.ackErrs = nil
	o.uplink = uplinkEstimate{}
	// A handoff gets one trace ID for all its pre-sends: the new server's
	// resolution hops all join the same tree.
	o.handoffTrace = trace.NewID()
	restart := o.presendStarted
	o.presendStarted = false
	o.mu.Unlock()
	if restart {
		o.StartPreSend()
	}
	return nil
}

// Stats returns a copy of the offloader's counters.
func (o *Offloader) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.stats
	st.UplinkBytesPerSec = o.uplink.bytesPerSec
	return st
}

// StartPreSend begins sending the configured models to the edge server in
// the background, as the paper does when the web app starts. An offload
// issued before a model's ACK arrives sends the model first, inline (slower);
// every snapshot names its models spec-only.
func (o *Offloader) StartPreSend() {
	o.mu.Lock()
	if o.presendStarted {
		o.mu.Unlock()
		return
	}
	o.presendStarted = true
	o.mu.Unlock()
	o.presendWG.Add(1)
	go func() {
		defer o.presendWG.Done()
		for _, m := range o.opts.Models {
			_, err := o.preSend(m.Name, m.Net)
			o.mu.Lock()
			if err != nil {
				o.ackErrs = append(o.ackErrs, fmt.Errorf("pre-send %q: %w", m.Name, err))
			} else {
				o.acked[m.Name] = true
			}
			o.mu.Unlock()
		}
	}()
}

// preSend gets one model to the current server and returns the weight bytes
// it uploaded: zero when the server answered the offered content key from
// its store or a peer.
func (o *Offloader) preSend(name string, model *nn.Network) (int64, error) {
	o.mu.Lock()
	tid := o.handoffTrace
	o.mu.Unlock()
	start := time.Now()
	ps, err := o.conn.PreSendModel(o.app.ID(), name, model, tid)
	if err != nil {
		return 0, err
	}
	if ps.Resolve != nil {
		o.noteHandoffSpan(tid, name, ps.Resolve, time.Since(start))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if ps.Uploaded == 0 {
		o.stats.RefPreSendHits++
		return 0, nil
	}
	o.stats.RefPreSendMisses++
	o.stats.PreSendBytes += ps.Uploaded
	o.uplink.observe(ps.Uploaded, ps.Uplink)
	return ps.Uploaded, nil
}

// noteHandoffSpan parents a traced pre-send's server-side resolve span
// under a client root — the completed cross-process tree — and records it
// in Stats and the flight recorder.
func (o *Offloader) noteHandoffSpan(traceID, name string, span *protocol.SpanNode, rtt time.Duration) {
	root := &protocol.SpanNode{
		Op:       "handoff_presend",
		Addr:     "client",
		Micros:   rtt.Microseconds(),
		Detail:   name,
		Children: []*protocol.SpanNode{span},
	}
	o.mu.Lock()
	o.stats.LastHandoffSpan = root
	o.mu.Unlock()
	if o.opts.Flight != nil {
		o.opts.Flight.Record(telemetry.FlightEntry{
			TraceID: traceID,
			Reason:  telemetry.FlightHandoff,
			Note:    "handoff pre-send of model " + name,
			Span:    root,
		})
	}
}

// WaitForAcks blocks until every configured model pre-send has completed
// (successfully or not) and returns any accumulated errors.
func (o *Offloader) WaitForAcks() error {
	o.presendWG.Wait()
	o.mu.Lock()
	defer o.mu.Unlock()
	return errors.Join(o.ackErrs...)
}

// ModelAcked reports whether the named model's ACK has arrived.
func (o *Offloader) ModelAcked(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acked[name]
}

// ShouldOffload reports whether an event's handler is configured for
// offloading.
func (o *Offloader) ShouldOffload(ev webapp.Event) bool {
	return o.offloadTypes[ev.Type]
}

// Step processes the next pending app event: offloaded types go to the edge
// server, everything else runs locally. It reports whether an event was
// processed.
func (o *Offloader) Step() (bool, error) {
	ev, ok := o.app.PeekEvent()
	if !ok {
		return false, nil
	}
	if !o.ShouldOffload(ev) {
		return true, o.app.Step()
	}
	o.app.PopEvent()
	return true, o.attempt(ev, true)
}

// Offload executes ev's handler at the edge server via a snapshot round
// trip, then applies the result — the delta the server returns, patched into
// the snapshot just sent — to the local app (Fig 3). The call
// emits one decision event; callers driving the app through Step must not
// call Offload for the same event, or the event would be audited twice.
func (o *Offloader) Offload(ev webapp.Event) error {
	return o.attempt(ev, false)
}

// attempt runs one offload-eligible event through the funnel. Its
// placements are the edge server alone, or with degrade — the Step path —
// the server and then, under LocalFallback, the device.
func (o *Offloader) attempt(ev webapp.Event, degrade bool) error {
	o.mu.Lock()
	conn := o.conn
	o.mu.Unlock()
	var offloadErr error
	first := &Placement{Path: o.opts.AuditPath, Conn: conn, SplitLabel: o.opts.SplitLabel,
		Predicted: o.opts.PredictedOffload, Run: func() (Outcome, error) {
			var out Outcome
			out, offloadErr = o.offload(ev)
			return out, offloadErr
		}}
	if first.Path == "" {
		first.Path = obs.PathFull
	}
	fallback := degrade && o.opts.LocalFallback
	tried := 0
	_, err := Funnel{AppID: o.app.ID(), Audit: o.opts.Audit, Flight: o.opts.Flight}.Do(func(failed error) *Placement {
		tried++
		switch {
		case tried == 1:
			return first
		case tried == 2 && fallback:
			return &Placement{Path: obs.PathFallback, Reason: errKind(failed), Conn: conn, Run: func() (Outcome, error) {
				o.mu.Lock()
				o.stats.LocalFallbacks++
				o.mu.Unlock()
				return Outcome{}, o.app.Handle(ev)
			}}
		}
		return nil
	})
	if degrade {
		// A broken connection (mid-frame timeout, torn read) would desync
		// every later request: re-establish it so the next offload runs on
		// a clean frame stream. Only now, with the event finished — the
		// user's fallback must not wait on a connect to the host that just
		// failed.
		o.maybeRedial(conn, offloadErr)
	}
	return err
}

// maybeRedial re-establishes conn after an ErrConnBroken failure; a failed
// redial is left for the next attempt (the conn stays broken and keeps
// failing fast).
func (o *Offloader) maybeRedial(conn *Conn, err error) {
	if !errors.Is(err, ErrConnBroken) || conn.Redial() != nil {
		return
	}
	o.mu.Lock()
	o.stats.Redials++
	o.mu.Unlock()
}

// Run drives the app until its event queue drains or maxSteps events have
// been processed.
func (o *Offloader) Run(maxSteps int) (int, error) {
	steps := 0
	for steps < maxSteps {
		processed, err := o.Step()
		if err != nil {
			return steps, err
		}
		if !processed {
			return steps, nil
		}
		steps++
	}
	if _, pending := o.app.PeekEvent(); pending {
		return steps, fmt.Errorf("client: app %q did not quiesce within %d steps", o.app.ID(), maxSteps)
	}
	return steps, nil
}

// offload executes one offload round trip; the funnel attributes the
// outcome.
//
// If a model's ACK has not arrived yet, the client "sends both the snapshot
// and the NN model, albeit it is slower" (§III.B.1): the model files go
// first as an inline pre-send, then the snapshot ships spec-only. The result
// delta the server answers with is patched into the snapshot just sent — the
// state it was diffed against, still in hand — and that is applied to the
// app: what the handler did not touch is never sent back, parsed or hashed.
func (o *Offloader) offload(ev webapp.Event) (Outcome, error) {
	// What ships ahead of the snapshot: models whose ACK has not arrived.
	var (
		inlineBytes int64
		inlineTook  time.Duration
	)
	policies := make(map[string]snapshot.ModelPolicy)
	for _, name := range o.app.ModelNames() {
		if o.excludeModels[name] {
			policies[name] = snapshot.ModelOmit
			continue
		}
		if o.ModelAcked(name) {
			continue
		}
		model, _ := o.app.Model(name)
		start := time.Now()
		sent, err := o.preSend(name, model)
		if err != nil {
			return Outcome{}, fmt.Errorf("client: inline model send %q: %w", name, err)
		}
		inlineTook += time.Since(start)
		inlineBytes += sent
		o.mu.Lock()
		o.acked[name] = true
		o.mu.Unlock()
	}
	captureStart := time.Now()
	snap, err := snapshot.Capture(o.app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly,
		ModelPolicies:      policies,
		PendingEvent:       &ev,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("client: capture: %w", err)
	}
	captureDur := time.Since(captureStart)
	encodeStart := time.Now()
	encoded, err := snap.Encode()
	if err != nil {
		return Outcome{}, fmt.Errorf("client: encode: %w", err)
	}
	encodeDur := time.Since(encodeStart)
	// The body travels packed when the link so far has read slow enough for
	// the codec pass to pay, to a server that has said it decodes it.
	o.mu.Lock()
	uplink := o.uplink
	o.mu.Unlock()
	body := requestBody{wire: encoded}
	if uplink.worthPacking(len(encoded)) && o.conn.peerPacks.Load() {
		if body, err = packedBody(&o.packBuf, encoded); err != nil {
			return Outcome{}, fmt.Errorf("client: pack: %w", err)
		}
	}
	reply, err := o.conn.offloadBody(protocol.ReplyDelta, o.app.ID(), body)
	out := Outcome{TraceID: reply.TraceID, WireEncoding: protocol.EncodingName(reply.Encoding), UplinkBytesPerSec: uplink.bytesPerSec}
	if err != nil {
		return out, err
	}
	applyStart := time.Now()
	// The result delta is relative to the pre-execution state, which is
	// exactly the snapshot just shipped; the server names it by the request
	// itself.
	var result *snapshot.Snapshot
	resultDelta, err := snapshot.DecodeDelta(reply.Result)
	if err == nil {
		result, err = resultDelta.Apply(snap, reply.RequestBase)
	}
	if err != nil {
		// Only this result is poisoned; the stream delivered a whole frame.
		return out, fmt.Errorf("client: decode result: %w", err)
	}
	if err := result.ApplyTo(o.app, snapshot.RestoreOptions{}); err != nil {
		return out, fmt.Errorf("client: apply result: %w", err)
	}
	timing := Timing{
		InlineModelSend: inlineTook,
		CaptureEncode:   captureDur + encodeDur,
		RoundTrip:       reply.RoundTrip,
		DecodeApply:     time.Since(applyStart),
	}
	tr := assembleTrace(reply, captureDur, encodeDur, timing.DecodeApply)
	o.rec.ObserveTrace(tr)
	up, _ := reply.wireLegs()
	o.mu.Lock()
	o.uplink.observe(reply.WireBytes, up)
	o.stats.Offloads++
	if reply.Encoding == protocol.EncodingPacked {
		o.stats.PackedOffloads++
	}
	o.stats.LastSnapshotBytes = reply.WireBytes
	o.stats.LastResultBytes = int64(len(reply.Result))
	o.stats.LastModelIncluded = inlineBytes > 0
	o.stats.LastInlineModelBytes = inlineBytes
	o.stats.LastTiming = timing
	o.stats.LastTrace = tr
	o.mu.Unlock()
	return out, nil
}

// assembleTrace merges one round trip's client-side measurements with the
// server's span report into a single per-offload trace. Wire time is what
// offloadReply.wireLegs derives; server-side decode/execute/encode fold into
// the execute stage; the queue span is the admission-queue wait.
func assembleTrace(reply offloadReply, capture, encode, restore time.Duration) *trace.Trace {
	tr := &trace.Trace{ID: reply.TraceID}
	tr.Add(trace.StageCapture, capture)
	tr.Add(trace.StageEncode, encode)
	if c := reply.Packing + reply.Unpacking; c > 0 {
		tr.Add(trace.StageCompress, c)
	}
	up, down := reply.wireLegs()
	tr.Add(trace.StageWire, up)
	if st := reply.ServerTrace; st != nil {
		tr.Add(trace.StageQueue, time.Duration(st.QueueMicros)*time.Microsecond)
		exec := st.DecodeMicros + st.ExecuteMicros + st.EncodeMicros
		tr.Add(trace.StageExecute, time.Duration(exec)*time.Microsecond)
	}
	tr.Add(trace.StageResultWire, down)
	tr.Add(trace.StageRestore, restore)
	return tr
}
