// The attempt funnel: every offload-eligible request — an Offloader event,
// a local-mode session's inference, a multi-hop chain execution — is a walk
// over candidate placements (shed-to-local, one server, a chain, local) that
// ends at the first placement that completes it. The walk, and the single
// audit decision that describes where the request ended up, live here and
// nowhere else.
package client

import (
	"errors"
	"time"

	"websnap/internal/obs"
	"websnap/internal/telemetry"
)

// Placement is one candidate execution of a request: where it would run,
// and what the audit records if the request completes there.
type Placement struct {
	// Path and Reason are the decision recorded when this placement
	// completes the request. A Path of local, shed or fallback marks the
	// placement as on-device execution.
	Path   obs.DecisionPath
	Reason string
	// Conn is the edge server this placement targets (or, for a shed or
	// fallback, the one it stands in for); the decision takes its server
	// address and load-hint age from it. Nil for placements with no single
	// server, which name their target in Server instead.
	Conn   *Conn
	Server string
	// SplitLabel and Predicted describe the configured offload: the
	// partition point and the cost model's end-to-end estimate.
	SplitLabel string
	Predicted  time.Duration
	// Run executes the request at this placement.
	Run func() (Outcome, error)
}

// local reports whether the placement executes on the device itself.
func (p *Placement) local() bool {
	return p.Path == obs.PathLocal || p.Path == obs.PathShed || p.Path == obs.PathFallback
}

// Outcome is what one placement attempt reports back to the funnel.
type Outcome struct {
	// TraceID identifies the request in the span pipeline. It is set even
	// for attempts that failed after the request was stamped, so the
	// decision of a fallen-back request still joins the failed trace.
	TraceID string
	// BatchSize is the server-side batch the request executed in.
	BatchSize int
	// WireEncoding is the form the request body travelled in, and
	// UplinkBytesPerSec the link estimate that form was chosen from (zero:
	// nothing measured yet).
	WireEncoding      string
	UplinkBytesPerSec float64
}

// Funnel runs requests through their candidate placements and records the
// one decision each request produces.
type Funnel struct {
	// AppID identifies the app instance on every decision.
	AppID string
	// Policy names the fleet placement policy that chose the target server.
	Policy string
	// Audit receives exactly one decision per Do call (nil-safe).
	Audit *obs.Auditor
	// Flight, when non-nil, also captures every shed, fallback and error
	// decision.
	Flight *telemetry.FlightRecorder
}

// errNoPlacement is Do's result when next offers nothing to try.
var errNoPlacement = errors.New("client: no placement to attempt")

// Do pulls placements from next — called with the previous placement's
// failure, nil at first — and runs them in order until one succeeds or next
// returns nil. It records exactly one decision: the successful placement's
// path and reason, or path error with the last failure's kind
// ("local-failed" when on-device execution itself failed), measured end to
// end across every placement tried. The returned error is the last
// placement's.
func (f Funnel) Do(next func(failed error) *Placement) (obs.Decision, error) {
	d := obs.Decision{AppID: f.AppID, Placement: f.Policy, Path: obs.PathError, Reason: "other"}
	err := errNoPlacement
	var failed error
	start := time.Now()
	for p := next(nil); p != nil; p = next(failed) {
		var out Outcome
		out, err = p.Run()
		d.Server, d.HintAge = p.Server, -1
		if p.Conn != nil {
			d.Server = p.Conn.Addr()
			if _, at, ok := p.Conn.LastLoad(); ok {
				d.HintAge = time.Since(at)
			}
		}
		if out.TraceID != "" {
			d.TraceID = out.TraceID
			d.WireEncoding, d.UplinkBytesPerSec = out.WireEncoding, out.UplinkBytesPerSec
		}
		if err == nil {
			d.Path, d.Reason = p.Path, p.Reason
			d.SplitLabel, d.Predicted = p.SplitLabel, p.Predicted
			d.BatchSize, d.Measured = out.BatchSize, time.Since(start)
			break
		}
		failed = err
		if d.Reason = errKind(err); p.local() {
			d.Reason = "local-failed"
		}
	}
	f.Audit.Record(d)
	f.capture(d)
	return d, err
}

// capture deposits a shed, fallback or error decision in the flight
// recorder, joined to its trace.
func (f Funnel) capture(d obs.Decision) {
	if f.Flight == nil {
		return
	}
	var reason string
	switch d.Path {
	case obs.PathShed:
		reason = telemetry.FlightShed
	case obs.PathError, obs.PathFallback:
		reason = telemetry.FlightError
	default:
		return
	}
	f.Flight.Record(telemetry.FlightEntry{
		TraceID:  d.TraceID,
		Reason:   reason,
		Note:     string(d.Path) + ": " + d.Reason,
		Decision: &d,
	})
}

// errKind classifies an offload error for decision attribution.
func errKind(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrConnBroken):
		return "conn-broken"
	case errors.Is(err, ErrServerError):
		return "server-error"
	default:
		return "other"
	}
}
