package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/trace"
)

// ServerStats is one fleet member's last-heartbeated telemetry state as
// the registry stores it: identity, load, and (for telemetry-capable
// members) the cumulative stats digest.
type ServerStats struct {
	Addr     string             `json:"addr"`
	Capacity int                `json:"capacity"`
	Load     *protocol.LoadHint `json:"load,omitempty"`
	// AgeMillis is the heartbeat staleness at snapshot time (registry
	// clock).
	AgeMillis int64 `json:"ageMillis"`
	// Stats is the member's digest; nil for members that heartbeat none.
	Stats *protocol.StatsDigest `json:"stats,omitempty"`
}

// Rollup merges per-server digests into fleet-wide telemetry: a
// Prometheus/JSON exposition registry and per-server summaries. A Rollup
// is built fresh per scrape from the registry's current member snapshot —
// digests are cumulative, so no state carries between scrapes.
type Rollup struct {
	Servers []ServerStats
}

// rollupStages is the fixed label set the Prometheus rollup exposes; a
// bounded set keeps fleet-of-N cardinality at len(stages) series.
func rollupStages() []trace.Stage { return trace.AllStages() }

// MergedStage returns the fleet-wide histogram for one stage, merged
// across every member that reported it.
func (r Rollup) MergedStage(stage trace.Stage) *trace.Histogram {
	h := &trace.Histogram{}
	for _, s := range r.Servers {
		MergeStage(h, s.Stats, stage)
	}
	return h
}

// Registry builds a per-scrape metrics registry over the rollup:
// fleet-wide stage histograms (merged across members), a fleet-wide
// decision-mix counter vector, and per-server queue/store/staleness
// gauges. Family names are disjoint from both the fleetd registry's
// persistent fleet_* families and edged's websnap_* families, so the two
// expositions concatenate into one lint-clean payload.
func (r Rollup) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	stageVec := reg.HistogramVec("websnap_rollup_stage_seconds",
		"Fleet-wide offload stage latency, merged from member heartbeat digests.", "stage")
	for _, stage := range rollupStages() {
		h := r.MergedStage(stage)
		if h.Count() == 0 {
			continue
		}
		stageVec.Attach(h, string(stage))
	}
	decisions := reg.CounterVec("websnap_rollup_decisions_total",
		"Fleet-wide executed request outcomes by path, merged from member digests.", "path")
	mix := make(map[string]uint64)
	for _, s := range r.Servers {
		if s.Stats == nil {
			continue
		}
		for path, n := range s.Stats.Decisions {
			mix[path] += n
		}
	}
	for _, path := range sortedKeys(mix) {
		decisions.With(path).Add(int64(mix[path]))
	}
	queue := reg.GaugeVec("websnap_rollup_queue_depth",
		"Per-member scheduler queue depth at last heartbeat.", "server")
	store := reg.GaugeVec("websnap_rollup_store_bytes",
		"Per-member session-store resident bytes at last heartbeat.", "server")
	stale := reg.GaugeVec("websnap_rollup_staleness_seconds",
		"Per-member heartbeat age at scrape time.", "server")
	for _, s := range r.Servers {
		stale.With(s.Addr).Set(float64(s.AgeMillis) / 1e3)
		if s.Stats == nil {
			continue
		}
		queue.With(s.Addr).Set(float64(s.Stats.QueueDepth))
		store.With(s.Addr).Set(float64(s.Stats.StoreBytes))
	}
	reg.GaugeFunc("websnap_rollup_servers",
		"Fleet members covered by this rollup.", func() float64 { return float64(len(r.Servers)) })
	return reg
}

// StageSummary is one stage's percentile summary in a server summary.
type StageSummary struct {
	Count      uint64  `json:"count"`
	MeanMillis float64 `json:"meanMillis"`
	P50Millis  float64 `json:"p50Millis"`
	P95Millis  float64 `json:"p95Millis"`
	P99Millis  float64 `json:"p99Millis"`
}

func summarize(h *trace.Histogram) StageSummary {
	q := h.Summary()
	return StageSummary{
		Count:      q.Count,
		MeanMillis: millis(q.Mean),
		P50Millis:  millis(q.P50),
		P95Millis:  millis(q.P95),
		P99Millis:  millis(q.P99),
	}
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// ServerSummary is one member's digest rendered for the /fleet endpoint.
type ServerSummary struct {
	Addr         string                  `json:"addr"`
	Capacity     int                     `json:"capacity"`
	AgeMillis    int64                   `json:"ageMillis"`
	QueueDepth   int                     `json:"queueDepth"`
	StoreBytes   int64                   `json:"storeBytes"`
	UptimeMillis int64                   `json:"uptimeMillis,omitempty"`
	Load         *protocol.LoadHint      `json:"load,omitempty"`
	Stages       map[string]StageSummary `json:"stages,omitempty"`
	Decisions    map[string]uint64       `json:"decisions,omitempty"`
	// Telemetry reports whether the member heartbeats digests; when false
	// its stage/decision fields are empty, not zero.
	Telemetry bool `json:"telemetry"`
}

// FleetSummary is the /fleet endpoint payload: per-server summaries plus
// the fleet-wide merged view.
type FleetSummary struct {
	Servers []ServerSummary         `json:"servers"`
	Fleet   map[string]StageSummary `json:"fleet,omitempty"`
}

// Summarize renders the rollup for the /fleet endpoint.
func (r Rollup) Summarize() FleetSummary {
	out := FleetSummary{Servers: make([]ServerSummary, 0, len(r.Servers))}
	for _, s := range r.Servers {
		sum := ServerSummary{
			Addr: s.Addr, Capacity: s.Capacity, AgeMillis: s.AgeMillis,
			Load: s.Load, Telemetry: s.Stats != nil,
		}
		if s.Stats != nil {
			sum.QueueDepth = s.Stats.QueueDepth
			sum.StoreBytes = s.Stats.StoreBytes
			sum.UptimeMillis = s.Stats.UptimeMillis
			sum.Decisions = s.Stats.Decisions
			for name, hd := range s.Stats.Stages {
				if sum.Stages == nil {
					sum.Stages = make(map[string]StageSummary, len(s.Stats.Stages))
				}
				sum.Stages[name] = summarize(HistogramFromDigest(hd))
			}
		}
		out.Servers = append(out.Servers, sum)
	}
	sort.Slice(out.Servers, func(i, j int) bool { return out.Servers[i].Addr < out.Servers[j].Addr })
	for _, stage := range rollupStages() {
		h := r.MergedStage(stage)
		if h.Count() == 0 {
			continue
		}
		if out.Fleet == nil {
			out.Fleet = make(map[string]StageSummary)
		}
		out.Fleet[string(stage)] = summarize(h)
	}
	return out
}

// FleetHandler serves the /fleet summary as JSON, rebuilding the rollup
// per request from the snapshot supplier.
func FleetHandler(snapshot func() []ServerStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := Rollup{Servers: snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Summarize())
	})
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
