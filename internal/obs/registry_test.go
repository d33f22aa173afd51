package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Add(3)
	r.CounterFunc("test_cb_total", "Callback counter.", func() int64 { return 7 })
	g := r.Gauge("test_depth", "Queue depth.")
	g.Set(2.5)
	r.GaugeFunc("test_workers", "Workers.", func() float64 { return 4 })
	cv := r.CounterVec("test_decisions_total", "Decisions.", "path", "reason")
	cv.With("full", "").Inc()
	cv.With("fallback", "conn-broken").Add(2)
	h := r.Histogram("test_latency_seconds", "Latency.")
	h.Observe(10 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP test_ops_total Operations.\n# TYPE test_ops_total counter\ntest_ops_total 3\n",
		"test_cb_total 7\n",
		"test_depth 2.5\n",
		"test_workers 4\n",
		`test_decisions_total{path="full",reason=""} 1`,
		`test_decisions_total{path="fallback",reason="conn-broken"} 2`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 1`,
		"test_latency_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if problems := LintPrometheus([]byte(out)); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestRegistryEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_esc_total", "Escaping.", "v")
	cv.With("a\\b\"c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_esc_total{v="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped series %q missing in:\n%s", want, b.String())
	}
	if problems := LintPrometheus([]byte(b.String())); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestRegistryCardinalityBound(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_card_total", "Cardinality.", "id")
	for i := 0; i < DefaultMaxSeries+50; i++ {
		cv.With(fmt.Sprintf("id-%d", i)).Inc()
	}
	// 64 distinct series plus one overflow bucket.
	if n := seriesCount(r, "test_card_total"); n != DefaultMaxSeries+1 {
		t.Errorf("series count = %d, want %d", n, DefaultMaxSeries+1)
	}
	if v := cv.With(OverflowLabel).Value(); v != 50 {
		t.Errorf("overflow series = %d, want 50", v)
	}
	// A pre-existing series keeps working past the bound.
	cv.With("id-0").Inc()
	if v := cv.With("id-0").Value(); v != 2 {
		t.Errorf("id-0 = %d, want 2", v)
	}
}

func TestRegistrySchemaConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Error("re-registering with different schema should panic")
		}
	}()
	r.GaugeVec("test_x_total", "X.", "label")
}

func TestRegistryHistogramAttach(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("test_stage_seconds", "Stage latency.", "stage")
	ext := hv.With("encode")
	ext.Observe(time.Millisecond)
	// Attach an external histogram for another stage.
	other := hv.With("wire")
	other.Observe(2 * time.Millisecond)
	other.Observe(4 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `test_stage_seconds_count{stage="encode"} 1`) {
		t.Errorf("encode count missing in:\n%s", out)
	}
	if !strings.Contains(out, `test_stage_seconds_count{stage="wire"} 2`) {
		t.Errorf("wire count missing in:\n%s", out)
	}
	if strings.Count(out, "# TYPE test_stage_seconds histogram") != 1 {
		t.Errorf("histogram family should have exactly one TYPE line:\n%s", out)
	}
	if problems := LintPrometheus([]byte(out)); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "Concurrency.")
	cv := r.CounterVec("test_conc_labeled_total", "Labeled.", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				cv.With(fmt.Sprintf("k-%d", i%4)).Inc()
				if j%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	var total int64
	for i := 0; i < 4; i++ {
		total += cv.With(fmt.Sprintf("k-%d", i)).Value()
	}
	if total != 8000 {
		t.Errorf("labeled total = %d, want 8000", total)
	}
}

// TestWantsPrometheus: every client gets Prometheus text. The ?format= values
// and Accept headers that content negotiation once told apart all get the
// same text 0.0.4 body from MetricsHandler, with the registries written in
// the order given and each one fetched afresh per scrape.
func TestWantsPrometheus(t *testing.T) {
	first, second := NewRegistry(), NewRegistry()
	ops := first.Counter("test_first_total", "First registry.")
	second.Gauge("test_second", "Second registry.").Set(1)
	h := MetricsHandler(func() *Registry { return first }, func() *Registry { return second })

	requests := []struct{ format, accept string }{
		{"prometheus", "application/json"},
		{"json", "text/plain"},
		{"", ""},
		{"", "*/*"},
		{"", "text/plain"},
		{"", "application/openmetrics-text"},
		{"", "text/*"},
		{"", "text/plain;q=0.5, application/json"},
		{"", "text/plain, application/json;q=0.5"},
		{"", "text/plain, application/json"},
		{"", "text/plain;q=0"},
		{"", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"},
		{"", "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"},
		{"", "text/*;q=0.9, application/json;q=0.8"},
	}
	scrape := func(format, accept string) string {
		t.Helper()
		target := "/metrics"
		if format != "" {
			target += "?format=" + format
		}
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if ct := rr.Header().Get("Content-Type"); rr.Code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Fatalf("format %q, Accept %q: status %d, Content-Type %q", format, accept, rr.Code, ct)
		}
		return rr.Body.String()
	}

	var want strings.Builder
	_ = first.WritePrometheus(&want)
	_ = second.WritePrometheus(&want)
	for _, rq := range requests {
		if got := scrape(rq.format, rq.accept); got != want.String() {
			t.Errorf("format %q, Accept %q: body\n%s\nwant the registries in order:\n%s", rq.format, rq.accept, got, want.String())
		}
	}
	if problems := LintPrometheus([]byte(want.String())); len(problems) != 0 {
		t.Errorf("lint problems: %v", problems)
	}

	ops.Add(2)
	if got := scrape("", ""); !strings.Contains(got, "test_first_total 2\n") {
		t.Errorf("a later scrape misses the counter's new value:\n%s", got)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("Allow") != http.MethodGet {
		t.Errorf("POST: status %d, Allow %q; want 405 and GET", rr.Code, rr.Header().Get("Allow"))
	}
}

// seriesCount returns the number of live series in the named family.
func seriesCount(r *Registry, name string) int {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.order)
}
