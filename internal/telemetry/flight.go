package telemetry

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
)

// DefaultFlightBytes is the flight recorder's byte cap when the caller
// passes zero.
const DefaultFlightBytes = 1 << 20

// Flight-entry reasons.
const (
	FlightSlow    = "slow"     // request exceeded the SLO objective
	FlightError   = "error"    // request failed
	FlightShed    = "shed"     // full server rejected the request; the client runs it locally
	FlightBurn    = "slo_burn" // SLO entered the burning state
	FlightHandoff = "handoff"  // roam handoff pre-send span tree
	FlightSwitch  = "switch"   // roamer changed edge servers
	FlightReplan  = "replan"   // chain hop failed; cut set re-planned
)

// FlightEntry is one captured incident: the trace identity, why it was
// captured, and whatever evidence was on hand — a span tree, the joined
// audit decision.
type FlightEntry struct {
	TraceID string    `json:"traceId,omitempty"`
	Reason  string    `json:"reason"`
	At      time.Time `json:"at"`
	Note    string    `json:"note,omitempty"`
	// Span is the request's span tree: the server's stages, and the spans
	// of every other process it crossed (fleet hops, downstream chain hops).
	Span *protocol.SpanNode `json:"span,omitempty"`
	// Decision is the joined offload audit decision, when one exists.
	Decision *obs.Decision `json:"decision,omitempty"`
}

// sizedEntry pairs an entry with its accounted JSON size.
type sizedEntry struct {
	entry FlightEntry
	bytes int64
}

// FlightRecorder is a byte-bounded ring of flight entries. Recording is
// O(evictions); the ring never holds more than its byte cap of encoded
// entries, so a long soak cannot grow the process by leaving it on.
type FlightRecorder struct {
	maxBytes int64

	mu      sync.Mutex
	entries []sizedEntry
	bytes   int64
	dropped uint64 // entries evicted or refused
	total   uint64 // entries ever recorded
}

// NewFlightRecorder creates a recorder bounded to maxBytes of encoded
// entries (DefaultFlightBytes when <= 0).
func NewFlightRecorder(maxBytes int64) *FlightRecorder {
	if maxBytes <= 0 {
		maxBytes = DefaultFlightBytes
	}
	return &FlightRecorder{maxBytes: maxBytes}
}

// Record captures one entry, evicting oldest entries until it fits. An
// entry larger than the whole cap is refused (counted as dropped) — the
// cap is a hard bound, not a target.
func (f *FlightRecorder) Record(e FlightEntry) {
	if f == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	enc, err := json.Marshal(e)
	if err != nil {
		// Unencodable evidence (shouldn't happen with these types): keep
		// the incident identity at least.
		e.Span, e.Decision = nil, nil
		enc, _ = json.Marshal(e)
	}
	size := int64(len(enc))
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	if size > f.maxBytes {
		f.dropped++
		return
	}
	for f.bytes+size > f.maxBytes && len(f.entries) > 0 {
		f.bytes -= f.entries[0].bytes
		f.entries = f.entries[1:]
		f.dropped++
	}
	f.entries = append(f.entries, sizedEntry{entry: e, bytes: size})
	f.bytes += size
}

// Dump returns the recorded entries, oldest first.
func (f *FlightRecorder) Dump() []FlightEntry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEntry, len(f.entries))
	for i, se := range f.entries {
		out[i] = se.entry
	}
	return out
}

// Bytes returns the accounted size of the resident entries.
func (f *FlightRecorder) Bytes() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}

// Cap returns the recorder's byte cap.
func (f *FlightRecorder) Cap() int64 {
	if f == nil {
		return 0
	}
	return f.maxBytes
}

// Len returns the resident entry count.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// Dropped returns how many entries were evicted or refused.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// flightDump is the /debug/flight payload.
type flightDump struct {
	CapBytes int64         `json:"capBytes"`
	Bytes    int64         `json:"bytes"`
	Total    uint64        `json:"total"`
	Dropped  uint64        `json:"dropped"`
	Entries  []FlightEntry `json:"entries"`
}

// Handler serves the ring's contents as JSON on /debug/flight.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f.mu.Lock()
		dump := flightDump{
			CapBytes: f.maxBytes, Bytes: f.bytes,
			Total: f.total, Dropped: f.dropped,
			Entries: make([]FlightEntry, len(f.entries)),
		}
		for i, se := range f.entries {
			dump.Entries[i] = se.entry
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(dump)
	})
}
