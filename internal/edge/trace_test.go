package edge

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/telemetry"
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

// stageOf returns span's direct child named op, or nil.
func stageOf(span *protocol.SpanNode, op string) *protocol.SpanNode {
	if span == nil {
		return nil
	}
	for _, c := range span.Children {
		if c.Op == op {
			return c
		}
	}
	return nil
}

// TestResultCarriesServerSpan checks that every result carries the server's
// span tree and load hint, with or without a trace ID to echo.
func TestResultCarriesServerSpan(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})

	hdr := offloadRaw(t, srv, addr, "00aa11bb22cc33dd")
	if hdr.Span == nil {
		t.Fatal("no span in response")
	}
	if hdr.TraceID != "00aa11bb22cc33dd" {
		t.Errorf("result TraceID = %q, want the request's trace ID", hdr.TraceID)
	}
	if exec := stageOf(hdr.Span, protocol.SpanExecute); exec == nil || exec.Micros <= 0 {
		t.Errorf("execute stage = %+v, want > 0", exec)
	}
	if hdr.Load == nil {
		t.Error("no load hint in response")
	}

	hdr = offloadRaw(t, srv, addr, "")
	if hdr.Span == nil || hdr.Load == nil {
		t.Errorf("untraced request: load=%v span=%v, want both", hdr.Load, hdr.Span)
	}

	if got := srv.stages[protocol.SpanExecute].Count(); got != 2 {
		t.Errorf("server execute-stage observations = %d, want 2", got)
	}
	if got := srv.stages[protocol.SpanQueue].Count(); got != 2 {
		t.Errorf("server queue-stage observations = %d, want 2", got)
	}
}

// traceLogLine is one line of Config.TraceLog.
type traceLogLine struct {
	TraceID string             `json:"traceId"`
	AppID   string             `json:"appId"`
	Seq     uint64             `json:"seq"`
	Span    *protocol.SpanNode `json:"span"`
}

// TestTraceLogLines checks that Config.TraceLog receives one well-formed
// JSON line per offload with the span tree.
func TestTraceLogLines(t *testing.T) {
	var buf syncBuffer
	srv, addr := startServer(t, Config{Installed: true, TraceLog: &buf})
	offloadRaw(t, srv, addr, "feedfacedeadbeef")
	offloadRaw(t, srv, addr, "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first traceLogLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("trace log line not JSON: %v\n%s", err, lines[0])
	}
	if first.TraceID != "feedfacedeadbeef" || first.AppID != "trace-app" || first.Seq != 1 {
		t.Errorf("trace log line = %+v", first)
	}
	if exec := stageOf(first.Span, protocol.SpanExecute); exec == nil || exec.Micros <= 0 {
		t.Errorf("execute stage = %+v, want > 0", exec)
	}
}

// TestMetricsPrometheus checks the Prometheus text exposition of /metrics
// after one offload: counters, gauges, and per-stage histograms with
// monotonically increasing cumulative le buckets.
func TestMetricsPrometheus(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	offloadRaw(t, srv, addr, "0123456789abcdef")

	rr := httptest.NewRecorder()
	adminMux(srv).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
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

// TestEveryStageLabelIsRecorded: every stage label /metrics registers on
// websnap_stage_seconds is one this server's requests record. A traced
// snapshot offload, a 2-hop chain this server heads, and a reference
// pre-send it resolves through the registry and a peer fetch leave every
// label's count at 1 or more. Decode and encode count the snapshot offload
// alone; queue and execute count it and this server's own hop, not the
// downstream hop grafted under the chain span.
func TestEveryStageLabelIsRecorded(t *testing.T) {
	model := tinyModel(t, "tiny")
	fetched, err := models.BuildTinyNet("fetched", 4)
	if err != nil {
		t.Fatal(err)
	}
	key := nn.Fingerprint(fetched)
	peer := blobPeer(t, map[string][]byte{key: modelBlob(t, fetched)})
	srv, addr := startHopServer(t, Config{Locator: fakeLocator{holders: map[string][]string{key: {peer}}}})
	_, tail := startHopServer(t, Config{})

	offloadRaw(t, srv, addr, "0123456789abcdef")

	if err := srv.store.Put("chain-app", "tiny", model); err != nil {
		t.Fatal(err)
	}
	preSendAll(t, model, []string{tail})
	hops := chainRanges(t, model, []string{addr, tail})
	boundary, err := model.ForwardRange(chainInput(t, model), 0, hops[0].From)
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)
	if _, err := conn.ChainExec("chain-app", "tiny", hops, boundary, "1123456789abcdef"); err != nil {
		t.Fatal(err)
	}

	ps, err := conn.PreSendModel("roamer", "fetched", fetched, "2123456789abcdef")
	if err != nil || ps.Uploaded != 0 {
		t.Fatalf("pre-send uploaded %d B, err %v; want the reference resolved by the peer", ps.Uploaded, err)
	}

	var labels []string
	counts := make(map[string]uint64)
	for _, line := range strings.Split(string(fetchMetrics(t, srv)), "\n") {
		if rest, ok := strings.CutPrefix(line, `websnap_stage_seconds_count{stage="`); ok {
			label, n, _ := strings.Cut(rest, `"} `)
			labels = append(labels, label)
			if counts[label], err = strconv.ParseUint(n, 10, 64); err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			if counts[label] == 0 {
				t.Errorf("stage %q registered but never recorded", label)
			}
		}
	}
	if !slices.Equal(labels, protocol.EdgeStages()) {
		t.Errorf("stage labels = %v, want %v", labels, protocol.EdgeStages())
	}
	for label, want := range map[string]uint64{
		protocol.SpanDecode: 1, protocol.SpanEncode: 1,
		protocol.SpanQueue: 2, protocol.SpanExecute: 2, protocol.SpanStreamWait: 2,
	} {
		if counts[label] != want {
			t.Errorf("stage %q count = %d, want %d", label, counts[label], want)
		}
	}
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
	adminMux(srv).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	var dump struct {
		Entries []telemetry.FlightEntry `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/flight: %v\n%s", err, rr.Body)
	}
	if len(dump.Entries) != 1 {
		t.Fatalf("flight holds %d entries, want the one rejection: %+v", len(dump.Entries), dump.Entries)
	}
	e := dump.Entries[0]
	if e.Reason != telemetry.FlightError || e.TraceID != "00aa11bb22cc33dd" || !strings.HasPrefix(e.Note, "snapshot: ") {
		t.Errorf("flight entry = %+v, want an error entry whose note starts %q", e, "snapshot: ")
	}
	// The entry keeps the request's span as far as it got.
	if stageOf(e.Span, protocol.SpanStreamWait) == nil {
		t.Errorf("flight entry span = %+v, want a root with a stream_wait stage", e.Span)
	}
}

// TestChainHopObservedLikeOffload: a chain hop and a snapshot offload reach
// the same observers from the one span each answers with — the stream_wait
// stage histogram, the SLO, the trace log, and the slow-request flight
// capture, whose span is the very tree the response carried.
func TestChainHopObservedLikeOffload(t *testing.T) {
	var log syncBuffer
	flight := telemetry.NewFlightRecorder(0)
	// Every real request is slow against a 1 ns objective.
	slo, err := telemetry.NewDaemonSLO("edge-serve", time.Nanosecond, 0, flight, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{Installed: true, TraceLog: &log, SLO: slo, Flight: flight})
	model := tinyModel(t, "tiny")
	if err := srv.store.Put("chain-app", "tiny", model); err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)

	for i, kind := range []struct {
		op      string
		request func() *protocol.SpanNode
	}{
		{"serve", func() *protocol.SpanNode { return offloadRaw(t, srv, addr, "00aa11bb22cc33dd").Span }},
		{"chain_exec", func() *protocol.SpanNode {
			hops := []protocol.ChainHop{{Addr: addr, From: 0, To: model.NumLayers()}}
			out, err := conn.ChainExec("chain-app", "tiny", hops, chainInput(t, model), "00ee11ff22cc33dd")
			if err != nil {
				t.Fatal(err)
			}
			return out.Span
		}},
	} {
		span := kind.request()
		n := i + 1
		if got := srv.stages[protocol.SpanStreamWait].Count(); got != uint64(n) {
			t.Errorf("%s: stream_wait observations = %d, want %d", kind.op, got, n)
		}
		if got := slo.Status().LongTotal; got != uint64(n) {
			t.Errorf("%s: SLO long-window total = %d, want %d", kind.op, got, n)
		}
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		var line traceLogLine
		if len(lines) != n || json.Unmarshal([]byte(lines[n-1]), &line) != nil || line.Span == nil || line.Span.Op != kind.op {
			t.Errorf("%s: trace log = %q, want %d lines, the last one the %s span", kind.op, log.String(), n, kind.op)
		}
		var slow []telemetry.FlightEntry
		for _, e := range flight.Dump() {
			if e.Reason == telemetry.FlightSlow {
				slow = append(slow, e)
			}
		}
		if len(slow) != n {
			t.Fatalf("%s: %d slow flight entries, want %d", kind.op, len(slow), n)
		}
		if got := slow[n-1].Span; span == nil || span.Op != kind.op || !reflect.DeepEqual(got, span) {
			t.Errorf("%s: slow entry span %+v, want the response's %+v", kind.op, got, span)
		}
	}
}
