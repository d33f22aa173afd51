package edge

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"websnap/internal/mlapp"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
	"websnap/internal/webapp"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the trace log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// offloadRaw performs one snapshot offload at the raw protocol level, its
// model stored in srv as a pre-send leaves it, and returns the response
// header.
func offloadRaw(t *testing.T, srv *Server, addr string, traceID string) protocol.SnapshotHeader {
	t.Helper()
	model := tinyModel(t, "tiny")
	if err := srv.store.Put("trace-app", "tiny", model); err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp("trace-app", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 7)); err != nil {
		t.Fatal(err)
	}
	ev := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	snap, err := snapshot.Capture(app, snapshot.Options{PendingEvent: &ev})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
		AppID: "trace-app", Seq: 1, TraceID: traceID,
	}, wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.Write(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != protocol.MsgResultSnapshot {
		t.Fatalf("response type = %s, want %s", resp.Type, protocol.MsgResultSnapshot)
	}
	var hdr protocol.SnapshotHeader
	if err := protocol.DecodeHeader(resp, &hdr); err != nil {
		t.Fatal(err)
	}
	return hdr
}

// TestResultCarriesServerTrace checks that every result carries the
// server's span report and load hint, with or without a trace ID to echo.
func TestResultCarriesServerTrace(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})

	hdr := offloadRaw(t, srv, addr, "00aa11bb22cc33dd")
	if hdr.ServerTrace == nil {
		t.Fatal("no ServerTrace in response")
	}
	if hdr.ServerTrace.TraceID != "00aa11bb22cc33dd" {
		t.Errorf("ServerTrace.TraceID = %q, want the request's trace ID", hdr.ServerTrace.TraceID)
	}
	if hdr.ServerTrace.ExecuteMicros <= 0 {
		t.Errorf("ExecuteMicros = %d, want > 0", hdr.ServerTrace.ExecuteMicros)
	}
	if hdr.ServerTrace.BatchSize < 1 {
		t.Errorf("BatchSize = %d, want >= 1", hdr.ServerTrace.BatchSize)
	}
	if hdr.Load == nil {
		t.Error("no load hint in response")
	}

	hdr = offloadRaw(t, srv, addr, "")
	if hdr.ServerTrace == nil || hdr.Load == nil {
		t.Errorf("untraced request: load=%v trace=%v, want both", hdr.Load, hdr.ServerTrace)
	}

	if got := srv.TraceRecorder().Stage(trace.StageExecute).Count(); got != 2 {
		t.Errorf("server execute-stage observations = %d, want 2", got)
	}
	if got := srv.TraceRecorder().Stage(trace.StageQueue).Count(); got != 2 {
		t.Errorf("server queue-stage observations = %d, want 2", got)
	}
}

// TestTraceLogLines checks that Config.TraceLog receives one well-formed
// JSON line per offload with the span breakdown.
func TestTraceLogLines(t *testing.T) {
	var buf syncBuffer
	srv, addr := startServer(t, Config{Installed: true, TraceLog: &buf})
	offloadRaw(t, srv, addr, "feedfacedeadbeef")
	offloadRaw(t, srv, addr, "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first struct {
		TraceID       string `json:"traceId"`
		AppID         string `json:"appId"`
		Seq           uint64 `json:"seq"`
		ExecuteMicros int64  `json:"executeMicros"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("trace log line not JSON: %v\n%s", err, lines[0])
	}
	if first.TraceID != "feedfacedeadbeef" || first.AppID != "trace-app" || first.Seq != 1 {
		t.Errorf("trace log line = %+v", first)
	}
	if first.ExecuteMicros <= 0 {
		t.Errorf("ExecuteMicros = %d, want > 0", first.ExecuteMicros)
	}
}

// TestMetricsPrometheus checks the Prometheus text exposition of /metrics
// after one offload: counters, gauges, and per-stage histograms with
// monotonically increasing cumulative le buckets.
func TestMetricsPrometheus(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	offloadRaw(t, srv, addr, "0123456789abcdef")

	rr := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE websnap_snapshots_executed_total counter",
		"websnap_snapshots_executed_total 1",
		"# TYPE websnap_installed gauge",
		"websnap_installed 1",
		"# TYPE websnap_stage_seconds histogram",
		`websnap_stage_seconds_bucket{stage="execute",le="+Inf"} 1`,
		`websnap_stage_seconds_count{stage="execute"} 1`,
		`websnap_stage_seconds_sum{stage="execute"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	assertCumulativeBuckets(t, body, "execute")
}

// assertCumulativeBuckets verifies the le buckets of one stage are emitted
// in increasing le order with non-decreasing cumulative counts.
func assertCumulativeBuckets(t *testing.T, body, stage string) {
	t.Helper()
	prefix := `websnap_stage_seconds_bucket{stage="` + stage + `",le="`
	lastLE := -1.0
	lastCum := uint64(0)
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		i := strings.Index(rest, `"}`)
		if i < 0 {
			t.Fatalf("malformed bucket line %q", line)
		}
		leStr, countStr := rest[:i], strings.TrimSpace(rest[i+2:])
		cum, err := strconv.ParseUint(countStr, 10, 64)
		if err != nil {
			t.Fatalf("bucket count %q: %v", countStr, err)
		}
		if leStr != "+Inf" {
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bucket le %q: %v", leStr, err)
			}
			if le <= lastLE {
				t.Errorf("bucket le %v not increasing (prev %v)", le, lastLE)
			}
			lastLE = le
		}
		if cum < lastCum {
			t.Errorf("bucket count %d decreased (prev %d)", cum, lastCum)
		}
		lastCum = cum
		n++
	}
	if n < 2 {
		t.Errorf("expected at least one occupied bucket plus +Inf for stage %s, got %d lines", stage, n)
	}
}

// TestFlightNoteNamesTheFrame: a request the server rejects lands in the
// flight recorder under a note that starts with its frame's name, so
// /debug/flight reads "snapshot: …" and not the frame type's raw byte.
func TestFlightNoteNamesTheFrame(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true, Flight: telemetry.NewFlightRecorder(0)})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	body := []byte("// a body its checksum does not match")
	req, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
		AppID: "flight-app", Seq: 1, TraceID: "00aa11bb22cc33dd", BodyCRC: protocol.BodyChecksum(body) + 1,
	}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.Write(c, req); err != nil {
		t.Fatal(err)
	}
	if resp, err := protocol.Read(c); err != nil || resp.Type != protocol.MsgError {
		t.Fatalf("response %v (err %v), want an error frame", resp.Type, err)
	}

	rr := httptest.NewRecorder()
	srv.FlightHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	var dump struct {
		Entries []telemetry.FlightEntry `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/flight: %v\n%s", err, rr.Body)
	}
	if len(dump.Entries) != 1 {
		t.Fatalf("flight holds %d entries, want the one rejection: %+v", len(dump.Entries), dump.Entries)
	}
	if e := dump.Entries[0]; e.Reason != telemetry.FlightError || e.TraceID != "00aa11bb22cc33dd" || !strings.HasPrefix(e.Note, "snapshot: ") {
		t.Errorf("flight entry = %+v, want an error entry whose note starts %q", e, "snapshot: ")
	}
}
