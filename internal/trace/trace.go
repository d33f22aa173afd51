// Package trace is the offload pipeline's telemetry primitives: trace IDs
// and lock-free, mergeable latency histograms.
//
// One request's journey is one protocol.SpanNode tree whose ops are the
// protocol.Span* constants (the client's root grafts the server's tree). An
// edge server keeps one Histogram per stage it records, exported on
// /metrics and folded into fleet digests; the simulator summarises its
// stages with the same Histogram.
package trace

import (
	"crypto/rand"
	"encoding/hex"
)

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
