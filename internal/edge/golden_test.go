package edge

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/vmsynth"
)

// goldenServer mirrors the configuration the golden files were captured
// with (pre-registry code, fresh server, 4 workers).
func goldenServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Config{Catalog: testCatalog(t), Installed: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// adminMux is the operator mux cmd/edged serves for srv.
func adminMux(srv *Server) *http.ServeMux {
	return telemetry.AdminMux(telemetry.Admin{
		Metrics:  []func() *obs.Registry{srv.Registry},
		NotReady: srv.NotReady,
		SLO:      srv.cfg.SLO,
		Flight:   srv.cfg.Flight,
	})
}

func fetchMetrics(t *testing.T, srv *Server) []byte {
	t.Helper()
	ts := httptest.NewServer(adminMux(srv))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMetricsGoldenPrometheus pins the Prometheus exposition of a fresh
// server byte-for-byte to the output of the pre-registry handler. Series
// names, ordering, HELP text, and value formatting are scrape contract:
// dashboards and recording rules depend on them.
func TestMetricsGoldenPrometheus(t *testing.T) {
	got := fetchMetrics(t, goldenServer(t))
	want := readGolden(t, "metrics.prom", got)
	if string(got) != string(want) {
		t.Errorf("prometheus exposition diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// readGolden loads a golden file; with UPDATE_GOLDEN set it first rewrites
// the file from got (for deliberate exposition extensions — new families
// must append after the existing prefix, never reorder it).
func readGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestMetricsExpositionLint structurally validates the exposition of an
// exercised server (counters bumped, histograms populated): HELP/TYPE
// before samples, no duplicate series, cumulative monotone buckets,
// escaped labels.
func TestMetricsExpositionLint(t *testing.T) {
	srv := goldenServer(t)
	// Populate counters and histograms so the lint sees non-trivial series.
	srv.connsServed.Add(3)
	srv.errorsAnswered.Inc()
	for i, op := range []string{protocol.SpanQueue, protocol.SpanExecute} {
		h := srv.stages[op]
		for j := 0; j < 50; j++ {
			h.Observe(time.Duration(i+1) * time.Duration(j+1) * time.Microsecond)
		}
	}
	out := fetchMetrics(t, srv)
	if problems := obs.LintPrometheus(out); len(problems) != 0 {
		t.Errorf("exposition lint problems:\n%s\nin:\n%s", problems, out)
	}
}

// TestMetricsContentNegotiation drives the handler with the Accept header a
// real Prometheus scraper sends, a JSON client's, a bare wildcard and none,
// and with the retired ?format=json override: negotiation has one outcome,
// the text 0.0.4 exposition the golden file pins.
func TestMetricsContentNegotiation(t *testing.T) {
	srv := goldenServer(t)
	ts := httptest.NewServer(adminMux(srv))
	defer ts.Close()
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}

	for _, rq := range []struct{ path, accept string }{
		{"/metrics", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"},
		{"/metrics", "application/json"},
		{"/metrics", "*/*"},
		{"/metrics", ""},
		{"/metrics?format=json", "application/json"},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+rq.path, nil)
		if rq.accept != "" {
			req.Header.Set("Accept", rq.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s, Accept %q: status %d, Content-Type %q", rq.path, rq.accept, resp.StatusCode, ct)
		}
		if string(body) != string(want) {
			t.Errorf("%s, Accept %q: body diverged from the golden exposition:\n%s", rq.path, rq.accept, body)
		}
	}
}

// TestHealthReadyHandlers covers the probe endpoints: healthz is
// unconditionally live; readyz tracks install state and scheduler
// drain.
func TestHealthReadyHandlers(t *testing.T) {
	srv := goldenServer(t)
	ts := httptest.NewServer(adminMux(srv))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz (installed) = %d, want 200", resp.StatusCode)
	}
	if err := srv.NotReady(); err != nil {
		t.Errorf("NotReady() = %v on an installed, accepting server", err)
	}

	// Draining: Close stops the scheduler; readyz must flip to 503 while
	// healthz stays 200.
	srv.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz (draining) = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if srv.NotReady() == nil {
		t.Error("NotReady() = nil on a draining server")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz (draining) = %d, want 200", resp.StatusCode)
	}
}

// TestReadyzNotInstalled covers the pre-install readiness gate.
func TestReadyzNotInstalled(t *testing.T) {
	srv, err := NewServer(Config{Catalog: testCatalog(t), Installed: false,
		Synthesizer: vmsynth.NewSynthesizer(vmsynth.BaseImage{Name: "ubuntu-12.04", Bytes: 1 << 20})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rz := httptest.NewServer(adminMux(srv))
	defer rz.Close()
	resp, err := http.Get(rz.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz (not installed) = %d, want 503 (%s)", resp.StatusCode, body)
	}
}
