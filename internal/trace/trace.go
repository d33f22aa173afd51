// Package trace is the offload pipeline's telemetry layer: per-offload span
// traces and lock-free stage-latency histograms.
//
// One offload round trip crosses eight stages — snapshot capture, textual
// encoding, compression, request wire transfer, the server's admission
// queue, batched execution, result wire transfer, and result restoration.
// The paper's headline numbers (Fig 7) are exactly these stage latencies,
// and offload policy (partition choice, load shedding, roaming) is tuned
// against them; coarse per-request totals hide which stage moved. A Trace
// records one request's journey (client- and server-side spans merged via
// the protocol's trace extension); a Recorder aggregates stage latencies
// into mergeable log-bucketed histograms for /metrics, cmd/bench, and the
// scheduler's load signal.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Stage names one pipeline stage of an offload round trip.
type Stage string

// The offload pipeline stages, in wire order. Probe is the roamer's
// server-selection RTT probe, outside the request pipeline proper.
const (
	StageCapture    Stage = "capture"     // snapshot capture at the client
	StageEncode     Stage = "encode"      // textual snapshot encoding
	StageCompress   Stage = "compress"    // client-side body packing + unpacking (slow links only)
	StageWire       Stage = "wire"        // request frame transfer client → server
	StageQueue      Stage = "queue"       // admission-queue wait at the server
	StageExecute    Stage = "execute"     // restore + handler run + result capture
	StageResultWire Stage = "result_wire" // result frame transfer server → client
	StageRestore    Stage = "restore"     // result decode + apply at the client
	StageProbe      Stage = "probe"       // roaming server-selection probe RTT

	// Fleet-hop and mux stages (the telemetry extension): outside the
	// 8-stage request pipeline, these account cross-process and
	// per-stream overheads that the pipeline stages hide.
	StageStreamWait Stage = "stream_wait" // mux stream-slot semaphore wait at the server
	StageDemux      Stage = "demux"       // response demux routing at the client
	StageRegistry   Stage = "registry"    // registry RPC round trip (locate/register)
	StagePeerFetch  Stage = "peer_fetch"  // server-to-server blob fetch round trip
)

// Stages lists every pipeline stage in pipeline order (excluding StageProbe).
func Stages() []Stage {
	return []Stage{
		StageCapture, StageEncode, StageCompress, StageWire,
		StageQueue, StageExecute, StageResultWire, StageRestore,
	}
}

// AllStages lists every known stage, pipeline stages first.
func AllStages() []Stage {
	return append(Stages(), StageProbe,
		StageStreamWait, StageDemux, StageRegistry, StagePeerFetch)
}

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; keep the zero ID
		// rather than panicking in a telemetry path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Span is one recorded stage duration within a trace.
type Span struct {
	Stage Stage         `json:"stage"`
	Dur   time.Duration `json:"durNanos"`
}

// Trace is one offload's recorded journey through the pipeline. It is built
// by a single goroutine (the offloading path) and read after completion; it
// needs no locking.
type Trace struct {
	// ID is the trace identifier propagated in protocol headers so client
	// and server spans of the same offload can be joined.
	ID string `json:"traceId"`
	// Spans holds the recorded stages in the order they were added.
	Spans []Span `json:"spans"`
	// BatchSize is the server-side execution batch this offload rode in
	// (0 when unknown, 1 for solo execution).
	BatchSize int `json:"batchSize,omitempty"`
}

// New creates a trace with a fresh ID.
func New() *Trace { return &Trace{ID: NewID()} }

// Add appends one stage span. Zero-duration spans are kept: a stage that ran
// and took <1µs is different from a stage that never ran.
func (t *Trace) Add(stage Stage, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.Spans = append(t.Spans, Span{Stage: stage, Dur: d})
}

// Get returns the total recorded duration of a stage (0 when absent) and
// whether any span of that stage exists.
func (t *Trace) Get(stage Stage) (time.Duration, bool) {
	var total time.Duration
	found := false
	for _, s := range t.Spans {
		if s.Stage == stage {
			total += s.Dur
			found = true
		}
	}
	return total, found
}

// Total returns the sum of all recorded spans.
func (t *Trace) Total() time.Duration {
	var total time.Duration
	for _, s := range t.Spans {
		total += s.Dur
	}
	return total
}

// Recorder aggregates stage latencies into one histogram per stage. All
// methods are safe for concurrent use; the per-stage histograms are
// allocated up front so recording is map-read + atomic add.
type Recorder struct {
	hists map[Stage]*Histogram
}

// NewRecorder creates a recorder covering every known stage.
func NewRecorder() *Recorder {
	r := &Recorder{hists: make(map[Stage]*Histogram, len(AllStages()))}
	for _, s := range AllStages() {
		r.hists[s] = &Histogram{}
	}
	return r
}

// Observe records one stage latency. Unknown stages are dropped.
func (r *Recorder) Observe(stage Stage, d time.Duration) {
	if h, ok := r.hists[stage]; ok {
		h.Observe(d)
	}
}

// ObserveTrace records every span of a completed trace.
func (r *Recorder) ObserveTrace(t *Trace) {
	if t == nil {
		return
	}
	for _, s := range t.Spans {
		r.Observe(s.Stage, s.Dur)
	}
}

// Stage returns the histogram for one stage (nil for unknown stages).
func (r *Recorder) Stage(stage Stage) *Histogram { return r.hists[stage] }

// Merge folds other's histograms into r, stage by stage.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil {
		return
	}
	for s, h := range r.hists {
		h.Merge(other.hists[s])
	}
}

// StageSummary is one stage's percentile summary.
type StageSummary struct {
	Stage Stage
	Quantiles
}

// Summaries returns a percentile summary per stage with at least one
// observation, in pipeline order.
func (r *Recorder) Summaries() []StageSummary {
	var out []StageSummary
	for _, s := range AllStages() {
		h := r.hists[s]
		if h.Count() == 0 {
			continue
		}
		out = append(out, StageSummary{Stage: s, Quantiles: h.Summary()})
	}
	return out
}
