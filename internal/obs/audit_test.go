package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAuditorSummary(t *testing.T) {
	a := NewAuditor(AuditorOptions{})
	a.Record(Decision{Path: PathFull, Predicted: 100 * time.Millisecond, Measured: 110 * time.Millisecond, HintAge: -1})
	a.Record(Decision{Path: PathFull, Predicted: 100 * time.Millisecond, Measured: 90 * time.Millisecond, HintAge: -1})
	a.Record(Decision{Path: PathLocal, Reason: "mode-local", HintAge: 20 * time.Millisecond})
	a.Record(Decision{Path: PathFallback, Reason: "conn-broken", HintAge: -1})

	s := a.Summary()
	if s.Total != 4 {
		t.Errorf("total = %d, want 4", s.Total)
	}
	wantMix := map[DecisionPath]int64{PathFull: 2, PathLocal: 1, PathFallback: 1}
	if len(s.Mix) != len(wantMix) {
		t.Errorf("mix = %+v, want %d entries", s.Mix, len(wantMix))
	}
	for _, pc := range s.Mix {
		if wantMix[pc.Path] != pc.Count {
			t.Errorf("mix[%s] = %d, want %d", pc.Path, pc.Count, wantMix[pc.Path])
		}
	}
	// Only the two full decisions carried predictions: errors +0.10, -0.10.
	if s.PredErr.Count != 2 {
		t.Errorf("prediction samples = %d, want 2", s.PredErr.Count)
	}
	if s.PredErr.AbsP50 < 0.09 || s.PredErr.AbsP50 > 0.11 {
		t.Errorf("absP50 = %g, want ~0.10", s.PredErr.AbsP50)
	}
}

func TestDecisionPredictionError(t *testing.T) {
	d := Decision{Predicted: 100 * time.Millisecond, Measured: 150 * time.Millisecond}
	e, ok := d.PredictionError()
	if !ok || e < 0.49 || e > 0.51 {
		t.Errorf("error = %g ok=%v, want ~0.5", e, ok)
	}
	if _, ok := (Decision{Measured: time.Second}).PredictionError(); ok {
		t.Error("no prediction should yield no error sample")
	}
	if _, ok := (Decision{Predicted: time.Second}).PredictionError(); ok {
		t.Error("no measurement should yield no error sample")
	}
}

func TestAuditorSinkAndRegistry(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	a := NewAuditor(AuditorOptions{Registry: r, Sink: &buf, Keep: 2})
	a.Record(Decision{TraceID: "0123456789abcdef", Path: PathFull, Server: "edge:9191",
		Predicted: time.Millisecond, Measured: 2 * time.Millisecond, HintAge: 5 * time.Millisecond,
		WireEncoding: "raw", UplinkBytesPerSec: 4e8})
	a.Record(Decision{Path: PathFallback, Reason: "server-error", HintAge: -1,
		Predicted: 2 * time.Millisecond, Measured: time.Millisecond,
		WireEncoding: "packed", UplinkBytesPerSec: 3.5e6})
	a.Record(Decision{Path: PathLocal, Reason: "mode-local", HintAge: 0}) // no request: no encoding, gauge untouched

	// Sink: one JSON line per decision, with units-in-names fields.
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if _, ok := m["path"]; !ok {
			t.Errorf("line %d missing path: %s", lines, sc.Text())
		}
	}
	if lines != 3 {
		t.Errorf("sink lines = %d, want 3", lines)
	}

	// Registry: per-path/reason counters, and the two predictions' errors
	// (+100 %, −50 %) as nearest-rank quantiles, signed and absolute.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`websnap_client_decisions_total{path="full",reason="ok"} 1`,
		`websnap_client_decisions_total{path="fallback",reason="server-error"} 1`,
		`websnap_client_decisions_total{path="local",reason="mode-local"} 1`,
		`websnap_request_encoding_total{encoding="raw"} 1`,
		`websnap_request_encoding_total{encoding="packed"} 1`,
		`websnap_client_uplink_bytes_per_second 3.5e+06`,
		`websnap_client_predicted_decisions_total 2`,
		`websnap_client_prediction_error_ratio{kind="signed",quantile="0.5"} -0.5`,
		`websnap_client_prediction_error_ratio{kind="signed",quantile="0.95"} 1`,
		`websnap_client_prediction_error_ratio{kind="abs",quantile="0.5"} 0.5`,
		`websnap_client_prediction_error_ratio{kind="abs",quantile="0.95"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}

	// Ring: keeps the most recent Keep decisions, oldest first.
	recent := a.Recent()
	if len(recent) != 2 || recent[0].Path != PathFallback || recent[1].Path != PathLocal {
		t.Errorf("recent = %+v", recent)
	}
}

func TestDecisionJSONUnits(t *testing.T) {
	d := Decision{Path: PathFull, Predicted: 1500 * time.Microsecond,
		Measured: 2 * time.Millisecond, HintAge: 30 * time.Millisecond,
		WireEncoding: "packed", UplinkBytesPerSec: 3.5e6}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["predictedMicros"] != float64(1500) {
		t.Errorf("predictedMicros = %v", m["predictedMicros"])
	}
	if m["measuredMicros"] != float64(2000) {
		t.Errorf("measuredMicros = %v", m["measuredMicros"])
	}
	if m["hintAgeMillis"] != float64(30) {
		t.Errorf("hintAgeMillis = %v", m["hintAgeMillis"])
	}
	if m["wireEncoding"] != "packed" || m["uplinkBytesPerSec"] != 3.5e6 {
		t.Errorf("wireEncoding = %v, uplinkBytesPerSec = %v", m["wireEncoding"], m["uplinkBytesPerSec"])
	}
	// Negative hint age means "no hint": the field is omitted. So are the
	// wire fields of a decision that sent nothing.
	raw, _ = json.Marshal(Decision{Path: PathLocal, HintAge: -1})
	for _, key := range []string{"hintAgeMillis", "wireEncoding", "uplinkBytesPerSec"} {
		if strings.Contains(string(raw), key) {
			t.Errorf("%s should be omitted: %s", key, raw)
		}
	}
}

func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.Record(Decision{Path: PathFull})
	if a.Total() != 0 {
		t.Error("nil auditor total")
	}
	if a.Recent() != nil {
		t.Error("nil auditor recent")
	}
	if s := a.Summary(); s.Total != 0 {
		t.Error("nil auditor summary")
	}
}

func TestAuditorConcurrent(t *testing.T) {
	var buf bytes.Buffer
	a := NewAuditor(AuditorOptions{Sink: &buf, Keep: 8})
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				a.Record(Decision{Path: PathFull, Predicted: time.Millisecond,
					Measured: time.Duration(j+1) * time.Microsecond, HintAge: -1})
			}
		}()
	}
	wg.Wait()
	if a.Total() != goroutines*each {
		t.Errorf("total = %d, want %d", a.Total(), goroutines*each)
	}
	if got := strings.Count(buf.String(), "\n"); got != goroutines*each {
		t.Errorf("sink lines = %d, want %d", got, goroutines*each)
	}
	if s := a.Summary(); s.PredErr.Count != goroutines*each {
		t.Errorf("prediction samples = %d, want %d", s.PredErr.Count, goroutines*each)
	}
}

func TestAuditorSampleCapReplacement(t *testing.T) {
	a := NewAuditor(AuditorOptions{})
	// Push past the cap; later samples must keep being folded in (replacing
	// slots) rather than being dropped.
	for i := 0; i < maxPredSamples+1000; i++ {
		a.Record(Decision{Path: PathFull, Predicted: time.Millisecond, Measured: 2 * time.Millisecond, HintAge: -1})
	}
	s := a.Summary()
	if s.PredErr.Count != maxPredSamples {
		t.Errorf("sample count = %d, want cap %d", s.PredErr.Count, maxPredSamples)
	}
	if s.PredErr.P50 < 0.99 || s.PredErr.P50 > 1.01 {
		t.Errorf("p50 = %g, want ~1.0", s.PredErr.P50)
	}
}
