package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/trace"
)

func TestDigestRoundTripPreservesHistogram(t *testing.T) {
	rec := trace.NewRecorder()
	durations := []time.Duration{
		120 * time.Microsecond, 3 * time.Millisecond, 3 * time.Millisecond,
		47 * time.Millisecond, 900 * time.Millisecond,
	}
	for _, d := range durations {
		rec.Observe(trace.StageExecute, d)
	}
	src := DigestSource{
		Recorder:   rec,
		Decisions:  func() map[string]uint64 { return map[string]uint64{"snapshot_full": 5} },
		QueueDepth: func() int { return 3 },
		StoreBytes: func() int64 { return 1 << 20 },
	}
	d := src.Digest()
	if d.QueueDepth != 3 || d.StoreBytes != 1<<20 {
		t.Fatalf("scalars: %+v", d)
	}
	if d.Decisions["snapshot_full"] != 5 {
		t.Fatalf("decisions: %v", d.Decisions)
	}
	hd, ok := d.Stages[string(trace.StageExecute)]
	if !ok {
		t.Fatalf("execute stage missing from digest: %v", d.Stages)
	}
	// The digest must survive a wire round trip and rebuild a histogram
	// with identical count, sum, and quantiles.
	wire, err := json.Marshal(hd)
	if err != nil {
		t.Fatal(err)
	}
	var back protocol.HistDigest
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	h := HistogramFromDigest(back)
	orig := rec.Stage(trace.StageExecute)
	if h.Count() != orig.Count() || h.Sum() != orig.Sum() {
		t.Fatalf("rebuilt count/sum = %d/%v, want %d/%v", h.Count(), h.Sum(), orig.Count(), orig.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if h.Quantile(q) != orig.Quantile(q) {
			t.Errorf("q%v = %v, want %v", q, h.Quantile(q), orig.Quantile(q))
		}
	}
	// Stages with no observations must be absent, keeping idle digests
	// tiny.
	if _, ok := d.Stages[string(trace.StagePeerFetch)]; ok {
		t.Error("unobserved stage leaked into digest")
	}
}

func TestMergeStageAccumulatesAcrossServers(t *testing.T) {
	mk := func(ds ...time.Duration) *protocol.StatsDigest {
		rec := trace.NewRecorder()
		for _, d := range ds {
			rec.Observe(trace.StageExecute, d)
		}
		return DigestSource{Recorder: rec}.Digest()
	}
	a := mk(time.Millisecond, 2*time.Millisecond)
	b := mk(40 * time.Millisecond)
	merged := &trace.Histogram{}
	MergeStage(merged, a, trace.StageExecute)
	MergeStage(merged, b, trace.StageExecute)
	MergeStage(merged, nil, trace.StageExecute)                     // nil digest is a no-op
	MergeStage(merged, &protocol.StatsDigest{}, trace.StageExecute) // absent stage is a no-op
	if merged.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", merged.Count())
	}
	if want := 43 * time.Millisecond; merged.Sum() != want {
		t.Fatalf("merged sum = %v, want %v", merged.Sum(), want)
	}
}

func TestSLOBurnRateWindows(t *testing.T) {
	var now time.Time = time.Unix(1000, 0)
	var burns []SLOStatus
	slo, err := NewSLO(SLOConfig{
		Name:        "test",
		Objective:   10 * time.Millisecond,
		Goal:        0.9, // 10% error budget
		ShortWindow: 10 * time.Second,
		LongWindow:  60 * time.Second,
		Now:         func() time.Time { return now },
		OnBurn:      func(st SLOStatus) { burns = append(burns, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy traffic: all good events, no burn.
	for i := 0; i < 30; i++ {
		slo.Observe(time.Millisecond)
		now = now.Add(time.Second)
	}
	if st := slo.Status(); st.Burning || st.ShortBurn != 0 {
		t.Fatalf("healthy status = %+v", st)
	}
	// Regression: every request blows the objective. Burn rate heads to
	// 1/(1-goal) = 10x in both windows; the alert must fire exactly once
	// on the rising edge.
	for i := 0; i < 30; i++ {
		slo.Observe(50 * time.Millisecond)
		now = now.Add(time.Second)
	}
	st := slo.Status()
	if !st.Burning {
		t.Fatalf("status after regression = %+v, want burning", st)
	}
	if st.ShortBurn < SLOBurnThreshold || st.LongBurn < SLOBurnThreshold {
		t.Fatalf("burn rates %v/%v below threshold", st.ShortBurn, st.LongBurn)
	}
	if len(burns) != 1 {
		t.Fatalf("OnBurn fired %d times, want 1 (rising edge only)", len(burns))
	}
	// Recovery: the windows age the bad events out and the latch resets.
	for i := 0; i < 120; i++ {
		slo.Observe(time.Millisecond)
		now = now.Add(time.Second)
	}
	if st := slo.Status(); st.Burning {
		t.Fatalf("status after recovery = %+v, want not burning", st)
	}
	// A second regression fires the edge again.
	for i := 0; i < 30; i++ {
		slo.Observe(50 * time.Millisecond)
		now = now.Add(time.Second)
	}
	if len(burns) != 2 {
		t.Fatalf("OnBurn fired %d times after second regression, want 2", len(burns))
	}
}

func TestSLOObserveCountsClampsAndValidates(t *testing.T) {
	if _, err := NewSLO(SLOConfig{Objective: 0}); err == nil {
		t.Error("zero objective should fail")
	}
	if _, err := NewSLO(SLOConfig{Objective: time.Second, Goal: 1.5}); err == nil {
		t.Error("goal outside (0,1) should fail")
	}
	if _, err := NewSLO(SLOConfig{Objective: time.Second,
		ShortWindow: time.Hour, LongWindow: time.Minute}); err == nil {
		t.Error("long window shorter than short window should fail")
	}
	slo, err := NewSLO(SLOConfig{Objective: time.Second, ShortWindow: 5 * time.Second,
		LongWindow: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	slo.ObserveCounts(0, 5) // zero total: dropped entirely
	slo.ObserveCounts(2, 9) // bad clamped to total
	st := slo.Status()
	if st.ShortTotal != 2 || st.ShortBad != 2 {
		t.Fatalf("counts = %d/%d, want 2/2", st.ShortBad, st.ShortTotal)
	}
}

func TestSLOHandlerJSON(t *testing.T) {
	slo, err := NewSLO(SLOConfig{Name: "edge-serve", Objective: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slo.Observe(time.Millisecond)
	rr := httptest.NewRecorder()
	slo.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	var st SLOStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("invalid /slo payload: %v\n%s", err, rr.Body.Bytes())
	}
	if st.Name != "edge-serve" || st.ObjectiveMillis != 20 || st.Goal != 0.99 {
		t.Fatalf("payload = %+v", st)
	}
}

func TestFlightRecorderByteCap(t *testing.T) {
	f := NewFlightRecorder(2048)
	f.SetNow(func() time.Time { return time.Unix(42, 0) })
	note := strings.Repeat("x", 200)
	for i := 0; i < 100; i++ {
		f.Record(FlightEntry{TraceID: "0123456789abcdef", Reason: FlightSlow, Note: note})
		if f.Bytes() > f.Cap() {
			t.Fatalf("ring exceeded cap after %d records: %d > %d", i+1, f.Bytes(), f.Cap())
		}
	}
	if f.Len() == 0 || f.Dropped() == 0 {
		t.Fatalf("len=%d dropped=%d, want both positive", f.Len(), f.Dropped())
	}
	// Oversized entries are refused outright, not partially admitted.
	before := f.Len()
	f.Record(FlightEntry{Reason: FlightError, Note: strings.Repeat("y", 4096)})
	if f.Len() != before || f.Bytes() > f.Cap() {
		t.Fatalf("oversized entry changed the ring: len %d -> %d, bytes %d", before, f.Len(), f.Bytes())
	}
	// The nil recorder (no flight configured) absorbs everything.
	var nilRec *FlightRecorder
	nilRec.Record(FlightEntry{Reason: FlightSlow})
	if nilRec.Dump() != nil || nilRec.Len() != 0 {
		t.Error("nil recorder should be inert")
	}
}

func TestFlightRecorderDumpOrderAndHandler(t *testing.T) {
	f := NewFlightRecorder(1 << 16)
	for _, reason := range []string{FlightSlow, FlightShed, FlightBurn} {
		f.Record(FlightEntry{Reason: reason})
	}
	dump := f.Dump()
	if len(dump) != 3 || dump[0].Reason != FlightSlow || dump[2].Reason != FlightBurn {
		t.Fatalf("dump = %+v", dump)
	}
	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	var payload struct {
		CapBytes int64         `json:"capBytes"`
		Entries  []FlightEntry `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("invalid /debug/flight payload: %v", err)
	}
	if payload.CapBytes != 1<<16 || len(payload.Entries) != 3 {
		t.Fatalf("payload cap=%d entries=%d", payload.CapBytes, len(payload.Entries))
	}
}

// fleetStats builds a two-server fleet snapshot with digests.
func fleetStats() []ServerStats {
	mk := func(addr string, execute time.Duration, decisions map[string]uint64) ServerStats {
		rec := trace.NewRecorder()
		for i := 0; i < 5; i++ {
			rec.Observe(trace.StageExecute, execute)
		}
		rec.Observe(trace.StageQueue, execute/10)
		d := DigestSource{
			Recorder:   rec,
			Decisions:  func() map[string]uint64 { return decisions },
			QueueDepth: func() int { return 1 },
			StoreBytes: func() int64 { return 512 },
		}.Digest()
		return ServerStats{Addr: addr, Capacity: 4, AgeMillis: 250, Stats: d}
	}
	return []ServerStats{
		mk("edge-a:7080", 5*time.Millisecond, map[string]uint64{"snapshot_full": 3, "shed": 1}),
		mk("edge-b:7080", 90*time.Millisecond, map[string]uint64{"snapshot_full": 2}),
		{Addr: "edge-old:7080", Capacity: 2, AgeMillis: 100}, // pre-telemetry member
	}
}

func TestRollupPrometheusLintClean(t *testing.T) {
	reg := Rollup{Servers: fleetStats()}.Registry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := obs.LintPrometheus(buf.Bytes()); len(problems) != 0 {
		t.Fatalf("rollup exposition fails lint:\n%s\n---\n%s", strings.Join(problems, "\n"), buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"websnap_rollup_stage_seconds", "websnap_rollup_decisions_total",
		"websnap_rollup_queue_depth", "websnap_rollup_staleness_seconds",
		"websnap_rollup_servers 3",
		`path="snapshot_full"`, `server="edge-a:7080"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rollup exposition missing %q", want)
		}
	}
	// The rollup families must stay disjoint from the fleetd registry's
	// persistent families so concatenated expositions lint clean.
	fleetReg := obs.NewRegistry()
	obs.RegisterRuntimeStats(fleetReg)
	var both bytes.Buffer
	if err := fleetReg.WritePrometheus(&both); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&both); err != nil {
		t.Fatal(err)
	}
	if problems := obs.LintPrometheus(both.Bytes()); len(problems) != 0 {
		t.Fatalf("concatenated exposition fails lint:\n%s", strings.Join(problems, "\n"))
	}
}

func TestRollupSummarize(t *testing.T) {
	sum := Rollup{Servers: fleetStats()}.Summarize()
	if len(sum.Servers) != 3 {
		t.Fatalf("servers = %d, want 3", len(sum.Servers))
	}
	// Sorted by address; the pre-telemetry member reports Telemetry=false
	// with empty stage/decision fields.
	if sum.Servers[0].Addr != "edge-a:7080" || !sum.Servers[0].Telemetry {
		t.Fatalf("first server = %+v", sum.Servers[0])
	}
	old := sum.Servers[2]
	if old.Addr != "edge-old:7080" || old.Telemetry || old.Stages != nil {
		t.Fatalf("legacy server = %+v", old)
	}
	exec, ok := sum.Fleet[string(trace.StageExecute)]
	if !ok {
		t.Fatalf("fleet-wide execute summary missing: %v", sum.Fleet)
	}
	if exec.Count != 10 {
		t.Fatalf("fleet execute count = %d, want 10", exec.Count)
	}
	// The merged p99 must reflect the slow member, not the fast one.
	if exec.P99Millis < 50 {
		t.Fatalf("fleet execute p99 = %vms, want dominated by the 90ms member", exec.P99Millis)
	}
	a := sum.Servers[0]
	if a.QueueDepth != 1 || a.StoreBytes != 512 || a.Decisions["shed"] != 1 {
		t.Fatalf("server summary = %+v", a)
	}
}
