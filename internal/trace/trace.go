// Package trace is the offload pipeline's telemetry vocabulary: stage names,
// trace IDs, and lock-free stage-latency histograms.
//
// One offload round trip crosses eight stages — snapshot capture, textual
// encoding, compression, request wire transfer, the server's admission
// queue, execution, result wire transfer, and result restoration.
// The paper's headline numbers (Fig 7) are exactly these stage latencies,
// and offload policy (partition choice, load shedding, roaming) is tuned
// against them; coarse per-request totals hide which stage moved. One
// request's journey is one protocol.SpanNode tree whose stage children are
// named by these Stages (the client's root grafts the server's tree); a
// Recorder aggregates stage latencies into log-bucketed histograms for
// /metrics, fleet digests and the simulator's reports.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Stage names one pipeline stage of an offload round trip.
type Stage string

// The offload pipeline stages, in wire order.
const (
	StageCapture    Stage = "capture"     // snapshot capture at the client
	StageEncode     Stage = "encode"      // textual snapshot encoding
	StageCompress   Stage = "compress"    // client-side body packing + unpacking (slow links only)
	StageWire       Stage = "wire"        // request frame transfer client → server
	StageQueue      Stage = "queue"       // admission-queue wait at the server
	StageExecute    Stage = "execute"     // restore + handler run at the server
	StageResultWire Stage = "result_wire" // result frame transfer server → client
	StageRestore    Stage = "restore"     // result decode + apply at the client

	// Fleet-hop and mux stages (the telemetry extension): outside the
	// 8-stage request pipeline, these account cross-process and
	// per-stream overheads that the pipeline stages hide.
	StageStreamWait Stage = "stream_wait" // mux stream-slot semaphore wait at the server
	StageRegistry   Stage = "registry"    // registry RPC round trip (locate/register)
	StagePeerFetch  Stage = "peer_fetch"  // server-to-server blob fetch round trip
)

// Stages lists every pipeline stage in pipeline order.
func Stages() []Stage {
	return []Stage{
		StageCapture, StageEncode, StageCompress, StageWire,
		StageQueue, StageExecute, StageResultWire, StageRestore,
	}
}

// AllStages lists every known stage, pipeline stages first.
func AllStages() []Stage {
	return append(Stages(), StageStreamWait, StageRegistry, StagePeerFetch)
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

// Stage returns the histogram for one stage (nil for unknown stages).
func (r *Recorder) Stage(stage Stage) *Histogram { return r.hists[stage] }

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
