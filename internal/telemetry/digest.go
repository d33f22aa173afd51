// Package telemetry is the fleet-wide observability plane built on top of
// internal/trace (mergeable histograms) and internal/obs
// (metrics registry, decision audit). It provides:
//
//   - stats digests: compact, lossless snapshots of a server's stage
//     histograms and decision counters, piggybacked on fleet heartbeats
//     (protocol.StatsDigest) and re-merged by fleetd into fleet-wide
//     exposition and per-server summaries (Rollup);
//   - an SLO engine: latency objectives with multi-window burn-rate
//     alerting over the same histogram bucket layout (SLO);
//   - a flight recorder: a byte-bounded ring of complete span trees and
//     joined audit decisions for slow, failed, and shed requests
//     (FlightRecorder), dumped via /debug/flight.
//
// Cross-process span propagation itself rides in the protocol package
// (SpanNode); this package consumes the resulting trees.
package telemetry

import (
	"websnap/internal/protocol"
	"websnap/internal/trace"
)

// StageDigests exports stage histograms, keyed by span op, in mergeable
// wire form for a StatsDigest. Stages with zero observations are omitted
// (nil when none has any), so an idle server's digest stays tiny.
func StageDigests(stages map[string]*trace.Histogram) map[string]protocol.HistDigest {
	var out map[string]protocol.HistDigest
	for op, h := range stages {
		if h.Count() == 0 {
			continue
		}
		buckets, count, sum := h.ExportBuckets()
		if out == nil {
			out = make(map[string]protocol.HistDigest)
		}
		out[op] = protocol.HistDigest{Buckets: buckets, Count: count, SumNanos: sum}
	}
	return out
}

// HistogramFromDigest reconstructs a mergeable histogram from one wire
// digest entry.
func HistogramFromDigest(d protocol.HistDigest) *trace.Histogram {
	h := &trace.Histogram{}
	h.MergeBuckets(d.Buckets, d.Count, d.SumNanos)
	return h
}

// MergeStage folds one digest's stage op into dst (no-op when the stage is
// absent from the digest).
func MergeStage(dst *trace.Histogram, d *protocol.StatsDigest, op string) {
	if d == nil || dst == nil {
		return
	}
	if hd, ok := d.Stages[op]; ok {
		dst.MergeBuckets(hd.Buckets, hd.Count, hd.SumNanos)
	}
}
