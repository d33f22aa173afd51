package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/fleet"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
)

func TestRunRejectsNonPositiveTTL(t *testing.T) {
	if err := run(":0", "", 0, false, telemetryConfig{}); err == nil || !strings.Contains(err.Error(), "-ttl") {
		t.Errorf("zero ttl: err = %v, want -ttl mention", err)
	}
	if err := run(":0", "", -1, false, telemetryConfig{}); err == nil {
		t.Error("negative ttl should fail")
	}
}

func TestRunRejectsPprofWithoutMetricsAddr(t *testing.T) {
	if err := run(":0", "", time.Second, true, telemetryConfig{}); err == nil ||
		!strings.Contains(err.Error(), "-metrics-addr") {
		t.Errorf("pprof without metrics addr: err = %v, want -metrics-addr mention", err)
	}
}

func TestRunRejectsGoalWithoutObjective(t *testing.T) {
	err := run(":0", "", time.Second, false, telemetryConfig{sloGoal: 0.99})
	if err == nil || !strings.Contains(err.Error(), "-slo-objective") {
		t.Errorf("goal without objective: err = %v, want -slo-objective mention", err)
	}
}

// testFleetSnapshot fabricates a registry snapshot with one digest-bearing
// member and one pre-telemetry member, like a mixed-version fleet.
func testFleetSnapshot() []telemetry.ServerStats {
	rec := trace.NewRecorder()
	for i := 0; i < 5; i++ {
		rec.Observe(trace.StageExecute, 10*time.Millisecond)
	}
	d := telemetry.DigestSource{Recorder: rec}.Digest()
	d.QueueDepth = 2
	d.StoreBytes = 1 << 20
	return []telemetry.ServerStats{
		{Addr: "edge-a:7070", Capacity: 4, AgeMillis: 120, Stats: d},
		{Addr: "edge-b:7070", Capacity: 2, AgeMillis: 90},
	}
}

// TestMetricsHandlerPrometheusLint scrapes the combined fleetd exposition
// (registry counters + runtime stats + per-scrape rollup) and runs it
// through the Prometheus linter: the two registries' family names must
// stay disjoint or the concatenation would redeclare TYPE/HELP.
func TestMetricsHandlerPrometheusLint(t *testing.T) {
	metrics := obs.NewRegistry()
	obs.RegisterRuntimeStats(metrics)
	metrics.Counter("fleet_registrations_total", "Total registrations.").Add(3)
	h := metricsHandler(metrics, testFleetSnapshot)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	body := rr.Body.String()
	if errs := obs.LintPrometheus([]byte(body)); len(errs) > 0 {
		t.Fatalf("combined exposition fails lint: %v\n%s", errs, body)
	}
	for _, want := range []string{"fleet_registrations_total", "websnap_rollup_servers", "websnap_rollup_stage_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

// TestMetricsHandlerJSONShape: a client that asks for JSON gets the
// exposition, which keeps the registry's own counters and the fleet rollup
// apart as the JSON body's two keys did: the registry's families first, the
// rollup's after them.
func TestMetricsHandlerJSONShape(t *testing.T) {
	metrics := obs.NewRegistry()
	metrics.Counter("fleet_registrations_total", "Total registrations.").Add(1)
	h := metricsHandler(metrics, testFleetSnapshot)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	body := rr.Body.String()
	reg := strings.Index(body, "# TYPE fleet_registrations_total ")
	rollup := strings.Index(body, "# TYPE websnap_rollup_servers ")
	if reg < 0 || rollup < 0 || reg > rollup {
		t.Fatalf("registry family at %d, rollup family at %d; want both, registry first:\n%s", reg, rollup, body)
	}
	if !strings.Contains(body, "fleet_registrations_total 1\n") {
		t.Errorf("exposition lacks the registry's counter value:\n%s", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rr.Code)
	}
}

// TestMetricsEndpointsOneFormat: edged, fleetd and cmd/offload answer
// /metrics in one format whatever the scraper asks for. Every Accept header
// and ?format= value gets the same lint-clean `text/plain; version=0.0.4`
// body, and any method but GET gets 405 with Allow: GET. The test lives here
// because fleetd's wiring is reachable only from this package; edged's is
// edge.Server.MetricsHandler, and cmd/offload serves its auditor's registry
// through obs.MetricsHandler.
func TestMetricsEndpointsOneFormat(t *testing.T) {
	cat, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(edge.Config{Catalog: cat, Installed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	obs.RegisterRuntimeStats(srv.Registry())

	fleetMetrics := obs.NewRegistry()
	obs.RegisterRuntimeStats(fleetMetrics)
	fleet.NewRegistry(fleet.RegistryOptions{TTL: time.Second, Metrics: fleetMetrics})

	clientMetrics := obs.NewRegistry()
	obs.NewAuditor(obs.AuditorOptions{Registry: clientMetrics}).Record(obs.Decision{Path: obs.PathFull,
		Predicted: 10 * time.Millisecond, Measured: 12 * time.Millisecond, HintAge: -1, WireEncoding: "raw"})

	endpoints := []struct {
		name    string
		handler http.Handler
		family  string // one family the endpoint must carry
	}{
		{"edged", srv.MetricsHandler(), "websnap_sched_batched_tasks_total"},
		{"fleetd", metricsHandler(fleetMetrics, testFleetSnapshot), "websnap_rollup_servers"},
		{"offload", obs.MetricsHandler(func() *obs.Registry { return clientMetrics }), "websnap_client_prediction_error_ratio"},
	}
	requests := []struct{ name, target, accept string }{
		{"prometheus scraper", "/metrics", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"},
		{"json client", "/metrics", "application/json"},
		{"wildcard", "/metrics", "*/*"},
		{"no accept header", "/metrics", ""},
		{"format=json", "/metrics?format=json", "application/json"},
		{"format=prometheus", "/metrics?format=prometheus", ""},
		{"browser", "/metrics", "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"},
		{"json over lower-q text", "/metrics", "text/plain;q=0.5, application/json"},
		{"zero-q text", "/metrics", "text/plain;q=0"},
	}
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			var first string
			for _, rq := range requests {
				req := httptest.NewRequest(http.MethodGet, rq.target, nil)
				if rq.accept != "" {
					req.Header.Set("Accept", rq.accept)
				}
				rr := httptest.NewRecorder()
				ep.handler.ServeHTTP(rr, req)
				if ct := rr.Header().Get("Content-Type"); rr.Code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
					t.Fatalf("%s: status %d, Content-Type %q", rq.name, rr.Code, ct)
				}
				if problems := obs.LintPrometheus(rr.Body.Bytes()); len(problems) != 0 {
					t.Errorf("%s: exposition lint problems %v in:\n%s", rq.name, problems, rr.Body)
				}
				if !strings.Contains(rr.Body.String(), "# TYPE "+ep.family+" ") {
					t.Errorf("%s: exposition lacks %s", rq.name, ep.family)
				}
				// The runtime gauges move between scrapes; every other line
				// must not depend on what the request asked for.
				var stable strings.Builder
				for _, line := range strings.SplitAfter(rr.Body.String(), "\n") {
					if !strings.HasPrefix(line, "websnap_runtime_") {
						stable.WriteString(line)
					}
				}
				if first == "" {
					first = stable.String()
				} else if stable.String() != first {
					t.Errorf("%s: body differs from the %s scrape's", rq.name, requests[0].name)
				}
			}
			rr := httptest.NewRecorder()
			ep.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/metrics", nil))
			if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("Allow") != http.MethodGet {
				t.Errorf("POST: status %d, Allow %q; want 405 and GET", rr.Code, rr.Header().Get("Allow"))
			}
		})
	}
}

// TestSLOFeedDeltasFromCumulativeDigests drives the heartbeat→SLO bridge
// with cumulative digests and checks only increments are observed, with a
// restart (counters going backwards) treated as all-new events.
func TestSLOFeedDeltasFromCumulativeDigests(t *testing.T) {
	slo, err := telemetry.NewSLO(telemetry.SLOConfig{Name: "t", Objective: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	feed := &sloFeed{slo: slo, objective: 50 * time.Millisecond, last: make(map[string]sloCounts)}

	digest := func(fast, slow int) *protocol.StatsDigest {
		rec := trace.NewRecorder()
		for i := 0; i < fast; i++ {
			rec.Observe(trace.StageExecute, time.Millisecond)
		}
		for i := 0; i < slow; i++ {
			rec.Observe(trace.StageExecute, time.Second)
		}
		return telemetry.DigestSource{Recorder: rec}.Digest()
	}

	feed.observe("a", digest(8, 2))
	st := slo.Status()
	if st.ShortTotal != 10 || st.ShortBad != 2 {
		t.Fatalf("after first heartbeat: total=%d bad=%d, want 10/2", st.ShortTotal, st.ShortBad)
	}
	// Same cumulative counts again: no new events.
	feed.observe("a", digest(8, 2))
	if st := slo.Status(); st.ShortTotal != 10 || st.ShortBad != 2 {
		t.Fatalf("re-heartbeat double-counted: total=%d bad=%d", st.ShortTotal, st.ShortBad)
	}
	// Grown counts: only the increment lands.
	feed.observe("a", digest(12, 3))
	if st := slo.Status(); st.ShortTotal != 15 || st.ShortBad != 3 {
		t.Fatalf("after growth: total=%d bad=%d, want 15/3", st.ShortTotal, st.ShortBad)
	}
	// Counters went backwards: the member restarted, all counts are new.
	feed.observe("a", digest(2, 0))
	if st := slo.Status(); st.ShortTotal != 17 {
		t.Fatalf("after restart: total=%d, want 17", st.ShortTotal)
	}
	// nil feed and nil digest are inert.
	(*sloFeed)(nil).observe("a", digest(1, 0))
	feed.observe("a", nil)
}
