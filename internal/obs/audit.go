package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DecisionPath names the chosen execution path of one offload decision —
// the runtime counterpart of the paper's offload-vs-local rule
// (T_trans + T_server < T_local).
type DecisionPath string

// Decision paths.
const (
	// PathLocal: the session is configured (or resolved) to execute
	// locally; no offload was considered for this request.
	PathLocal DecisionPath = "local"
	// PathFull: the whole inference handler was offloaded.
	PathFull DecisionPath = "full"
	// PathPartial: the DNN was split and the rear part offloaded.
	PathPartial DecisionPath = "partial"
	// PathFallback: an offload was attempted, failed, and the request
	// completed locally (fallback-after-error).
	PathFallback DecisionPath = "fallback"
	// PathError: an offload was attempted, failed, and no local fallback
	// was configured; the request surfaced the error.
	PathError DecisionPath = "error"
	// PathChain: the DNN was split across a multi-hop chain of edge
	// servers (K-way partial inference); the request completed remotely
	// through the chain.
	PathChain DecisionPath = "chain"
)

// AllPaths lists every decision path in a stable reporting order.
func AllPaths() []DecisionPath {
	return []DecisionPath{PathLocal, PathFull, PathPartial, PathFallback, PathError, PathChain}
}

// Decision is one structured offload decision event: why a request ran
// where it ran, what the cost model predicted, and what actually happened.
// Exactly one Decision is emitted per offload-eligible request.
type Decision struct {
	// TraceID joins the decision to the span pipeline's trace (empty for
	// decisions where no request was sent, e.g. local).
	TraceID string `json:"traceId,omitempty"`
	// AppID identifies the app instance.
	AppID string `json:"appId,omitempty"`
	// Path is the chosen execution path.
	Path DecisionPath `json:"path"`
	// Reason qualifies non-success paths: the error kind for fallback and
	// error ("overloaded", "conn-broken", "server-error", ...).
	Reason string `json:"reason,omitempty"`
	// SplitLabel is the partition point for partial offloads.
	SplitLabel string `json:"splitLabel,omitempty"`
	// Server identifies the edge server the decision targeted.
	Server string `json:"server,omitempty"`
	// Predicted is the cost model's end-to-end latency prediction for the
	// chosen configuration; zero when no prediction was available.
	Predicted time.Duration `json:"predictedMicros,omitempty"`
	// Measured is the observed end-to-end latency of the request.
	Measured time.Duration `json:"measuredMicros,omitempty"`
	// HintAge is how stale the server load hint consulted for this
	// decision was; negative when no hint had arrived.
	HintAge time.Duration `json:"hintAgeMillis,omitempty"`
	// Placement names the fleet placement policy that chose the target
	// server ("hash", "load"). Only the simulator's fleet model
	// (internal/sim) fills it: the live roamer picks by probe score, not
	// by a placement policy, so live decisions leave it empty.
	Placement string `json:"placement,omitempty"`
	// WireEncoding is the form the request body travelled in ("raw",
	// "packed"); empty when no request was sent. UplinkBytesPerSec is the
	// client's link estimate that form was chosen from, zero before anything
	// was measured — together they attribute a predicted-vs-measured
	// residual on a slow link to the bytes that were not sent.
	WireEncoding      string  `json:"wireEncoding,omitempty"`
	UplinkBytesPerSec float64 `json:"uplinkBytesPerSec,omitempty"`
}

// MarshalJSON renders durations in the units the field names promise
// (micros for latencies, millis for hint age).
func (d Decision) MarshalJSON() ([]byte, error) {
	type alias struct {
		TraceID    string       `json:"traceId,omitempty"`
		AppID      string       `json:"appId,omitempty"`
		Path       DecisionPath `json:"path"`
		Reason     string       `json:"reason,omitempty"`
		SplitLabel string       `json:"splitLabel,omitempty"`
		Server     string       `json:"server,omitempty"`
		Predicted  int64        `json:"predictedMicros,omitempty"`
		Measured   int64        `json:"measuredMicros,omitempty"`
		HintAge    *int64       `json:"hintAgeMillis,omitempty"`
		Placement  string       `json:"placement,omitempty"`
		Encoding   string       `json:"wireEncoding,omitempty"`
		Uplink     float64      `json:"uplinkBytesPerSec,omitempty"`
	}
	a := alias{
		TraceID: d.TraceID, AppID: d.AppID, Path: d.Path, Reason: d.Reason,
		SplitLabel: d.SplitLabel, Server: d.Server,
		Predicted: d.Predicted.Microseconds(), Measured: d.Measured.Microseconds(),
		Placement: d.Placement,
		Encoding:  d.WireEncoding, Uplink: d.UplinkBytesPerSec,
	}
	if d.HintAge >= 0 {
		ms := d.HintAge.Milliseconds()
		a.HintAge = &ms
	}
	return json.Marshal(a)
}

// PredictionError returns the signed relative prediction error
// (measured-predicted)/predicted, and whether both quantities are present.
func (d Decision) PredictionError() (float64, bool) {
	if d.Predicted <= 0 || d.Measured <= 0 {
		return 0, false
	}
	return float64(d.Measured-d.Predicted) / float64(d.Predicted), true
}

// maxPredSamples bounds the auditor's retained prediction-error samples.
// Beyond it, every new sample replaces a deterministic pseudo-random slot,
// keeping the quantile estimate fresh without unbounded memory.
const maxPredSamples = 1 << 16

// AuditorOptions configures an Auditor.
type AuditorOptions struct {
	// Registry, when non-nil, receives the auditor's labeled counters
	// (websnap_client_decisions_total by path/reason,
	// websnap_request_encoding_total by wire encoding), the uplink
	// estimate gauge and the prediction-error quantiles (evaluated at scrape
	// time), so a client-side /metrics endpoint exposes them.
	Registry *Registry
	// Sink, when non-nil, receives one JSON line per decision — the
	// client-side analogue of the server's trace log.
	Sink io.Writer
	// Logger, when non-nil, logs each decision at debug level with the
	// trace ID field.
	Logger *Logger
	// Keep retains the most recent Keep decisions for inspection via
	// Recent (0 keeps none).
	Keep int
}

// Auditor records offload decision events: per-path/per-reason counters, a
// prediction-error sample set for quantiles, and optional JSON-line and
// structured-log feeds. All methods are safe for concurrent use; a nil
// *Auditor is a valid no-op.
type Auditor struct {
	opts      AuditorOptions
	decisions *CounterVec
	encodings *CounterVec
	uplink    *Gauge

	mu sync.Mutex
	// mix counts decisions per path.
	mix map[DecisionPath]int64
	// predErr holds signed relative prediction errors.
	predErr []float64
	// seen counts all prediction-error samples ever recorded (for the
	// replacement policy once predErr is full).
	seen uint64
	// rng drives slot replacement; deterministic (seeded constant) so
	// audits are reproducible.
	rng uint64
	// recent is a ring of the last opts.Keep decisions.
	recent []Decision
	next   int
	total  int64
}

// NewAuditor creates an auditor.
func NewAuditor(opts AuditorOptions) *Auditor {
	a := &Auditor{
		opts: opts,
		mix:  make(map[DecisionPath]int64),
		rng:  0x9e3779b97f4a7c15,
	}
	if opts.Keep > 0 {
		a.recent = make([]Decision, 0, opts.Keep)
	}
	if opts.Registry != nil {
		a.decisions = opts.Registry.CounterVec("websnap_client_decisions_total",
			"Offload decisions by chosen path and reason.", "path", "reason")
		a.encodings = opts.Registry.CounterVec("websnap_request_encoding_total",
			"Snapshot requests sent, by the encoding their body travelled in.", "encoding")
		a.uplink = opts.Registry.Gauge("websnap_client_uplink_bytes_per_second",
			"The client's estimate of its link to the edge server, which picks the request encoding (0 = nothing measured yet).")
		opts.Registry.CounterFunc("websnap_client_predicted_decisions_total",
			"Decisions that carried both a cost-model prediction and a measured latency.",
			func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return int64(a.seen) })
		predErr := opts.Registry.GaugeVec("websnap_client_prediction_error_ratio",
			"Quantiles of the cost model's relative prediction error (measured-predicted)/predicted, signed (positive = slower than predicted) and absolute.",
			"kind", "quantile")
		for _, q := range []struct {
			kind, quantile string
			pick           func(ErrQuantiles) float64
		}{
			{"signed", "0.5", func(e ErrQuantiles) float64 { return e.P50 }},
			{"signed", "0.95", func(e ErrQuantiles) float64 { return e.P95 }},
			{"abs", "0.5", func(e ErrQuantiles) float64 { return e.AbsP50 }},
			{"abs", "0.95", func(e ErrQuantiles) float64 { return e.AbsP95 }},
		} {
			predErr.Func(func() float64 { return q.pick(a.Summary().PredErr) }, q.kind, q.quantile)
		}
	}
	return a
}

// Record folds one decision event into the audit.
func (a *Auditor) Record(d Decision) {
	if a == nil {
		return
	}
	if d.Reason == "" {
		// Successful offloads carry no failure reason; label them "ok" so
		// the counter series never exposes an empty label value.
		d.Reason = "ok"
	}
	if a.decisions != nil {
		a.decisions.With(string(d.Path), d.Reason).Inc()
		if d.WireEncoding != "" {
			a.encodings.With(d.WireEncoding).Inc()
			a.uplink.Set(d.UplinkBytesPerSec)
		}
	}
	a.mu.Lock()
	a.total++
	a.mix[d.Path]++
	if e, ok := d.PredictionError(); ok {
		if len(a.predErr) < maxPredSamples {
			a.predErr = append(a.predErr, e)
		} else {
			a.rng ^= a.rng << 13
			a.rng ^= a.rng >> 7
			a.rng ^= a.rng << 17
			a.predErr[a.rng%maxPredSamples] = e
		}
		a.seen++
	}
	if cap(a.recent) > 0 {
		if len(a.recent) < cap(a.recent) {
			a.recent = append(a.recent, d)
		} else {
			a.recent[a.next] = d
			a.next = (a.next + 1) % cap(a.recent)
		}
	}
	a.mu.Unlock()
	if a.opts.Sink != nil {
		if line, err := json.Marshal(d); err == nil {
			a.mu.Lock()
			a.opts.Sink.Write(append(line, '\n')) //nolint:errcheck // best-effort feed
			a.mu.Unlock()
		}
	}
	if a.opts.Logger.Enabled(LevelDebug) {
		a.opts.Logger.Debug("offload decision",
			TraceID(d.TraceID),
			F("path", string(d.Path)),
			F("reason", d.Reason),
			F("predictedMicros", d.Predicted.Microseconds()),
			F("measuredMicros", d.Measured.Microseconds()),
		)
	}
}

// Total returns the number of recorded decisions.
func (a *Auditor) Total() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Recent returns the retained most-recent decisions, oldest first.
func (a *Auditor) Recent() []Decision {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.recent) < cap(a.recent) || a.next == 0 {
		return append([]Decision(nil), a.recent...)
	}
	out := make([]Decision, 0, len(a.recent))
	out = append(out, a.recent[a.next:]...)
	out = append(out, a.recent[:a.next]...)
	return out
}

// PathCount is one path's decision count.
type PathCount struct {
	Path  DecisionPath `json:"path"`
	Count int64        `json:"count"`
}

// ErrQuantiles summarizes the signed relative prediction-error
// distribution: quantiles of (measured-predicted)/predicted and of its
// absolute value.
type ErrQuantiles struct {
	// Count is the number of decisions carrying both a prediction and a
	// measurement.
	Count int `json:"count"`
	// P50 and P95 are quantiles of the signed relative error (positive =
	// slower than predicted).
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	// AbsP50 and AbsP95 are quantiles of |relative error|.
	AbsP50 float64 `json:"absP50,omitempty"`
	AbsP95 float64 `json:"absP95,omitempty"`
}

// AuditSummary is the aggregate view of an auditor: the decision mix and
// the cost model's prediction-error quantiles.
type AuditSummary struct {
	Total   int64        `json:"total"`
	Mix     []PathCount  `json:"mix"`
	PredErr ErrQuantiles `json:"predictionError"`
}

// Summary computes the current decision mix (in AllPaths order, non-zero
// paths only) and prediction-error quantiles.
func (a *Auditor) Summary() AuditSummary {
	if a == nil {
		return AuditSummary{}
	}
	a.mu.Lock()
	samples := append([]float64(nil), a.predErr...)
	sum := AuditSummary{Total: a.total}
	for _, p := range AllPaths() {
		if n := a.mix[p]; n > 0 {
			sum.Mix = append(sum.Mix, PathCount{Path: p, Count: n})
		}
	}
	a.mu.Unlock()
	sum.PredErr = errQuantiles(samples)
	return sum
}

// errQuantiles computes signed and absolute quantiles over the samples.
func errQuantiles(samples []float64) ErrQuantiles {
	q := ErrQuantiles{Count: len(samples)}
	if len(samples) == 0 {
		return q
	}
	signed := append([]float64(nil), samples...)
	sort.Float64s(signed)
	abs := make([]float64, len(samples))
	for i, v := range samples {
		if v < 0 {
			v = -v
		}
		abs[i] = v
	}
	sort.Float64s(abs)
	q.P50 = quantileF(signed, 0.50)
	q.P95 = quantileF(signed, 0.95)
	q.AbsP50 = quantileF(abs, 0.50)
	q.AbsP95 = quantileF(abs, 0.95)
	return q
}

// quantileF returns the q-quantile of a sorted sample by nearest-rank.
func quantileF(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
