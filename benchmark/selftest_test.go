package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"websnap/internal/netem"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// shrink makes every workload small enough for a test: one set-up with a
// three-request warm-up, two traced requests, and a 1 Gbit/s link in place of 30 Mbit/s Wi-Fi so the
// 45 MB pre-send does not sleep 12 s. It returns the undo.
func shrink() func() {
	saved, savedWarmup := make([]workload, len(workloads)), warmupTime
	warmupTime = 0
	for i, w := range workloads {
		saved[i] = *w
		w.setups, w.traced = 1, 2
		if w.link != netem.Unlimited {
			w.link = netem.Profile{BandwidthBitsPerSec: 1e9, Latency: 2 * time.Millisecond}
		}
	}
	return func() {
		warmupTime = savedWarmup
		for i, w := range workloads {
			*w = saved[i]
		}
	}
}

// TestManifestMatchesTables pins BENCHMARK.json to the program's tables.
func TestManifestMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: %q [%q] is outside the allowed alphabet", kind, d.name, d.unit)
			}
		}
	}
	var names, units []string
	hasSetup := false
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s missing from end_to_end")
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}

// TestAllWorkloads runs every workload with a 1 s window and two traced
// requests, and checks that each reports every named metric exactly once,
// answers correctly, and leaves a span tree with non-negative self times
// that accounts for the request.
func TestAllWorkloads(t *testing.T) {
	defer shrink()()
	dir := t.TempDir()
	host := readHost()
	for _, w := range workloads {
		o, err := runWorkload(w, runConfig{seed: 1, seconds: 1, trace: true, outDir: dir}, host, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, o.attempted, o.failed)
		}
		for kind, tc := range map[string]struct {
			defs []metricDef
			got  map[string]metricValue
		}{"end_to_end": {endToEnd, o.endToEnd}, "per_layer": {perLayer, o.perLayer}} {
			if len(tc.got) != len(tc.defs) {
				t.Errorf("%s %s: %d metrics reported, %d named", w.name, kind, len(tc.got), len(tc.defs))
			}
			for _, d := range tc.defs {
				if v, ok := tc.got[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s %s: %s missing or unit %q != %q", w.name, kind, d.name, v.Unit, d.unit)
				}
			}
		}
		for _, d := range endToEnd {
			if o.endToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, o.endToEnd[d.name].Value)
			}
		}
		if c := o.perLayer["trace.coverage_frac"].Value; c < 0.85 || c > 1 {
			t.Errorf("%s: spans cover %.3f of a request, want 0.85..1", w.name, c)
		}
		checkTraceFile(t, filepath.Join(dir, "trace_"+w.name+".json"), w.traced)
	}
}

func checkTraceFile(t *testing.T, path string, requests int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	roots := 0
	for i, s := range tf.Spans {
		if s.ID != i+1 || s.EndUS < s.StartUS {
			t.Fatalf("%s: span %d malformed: %+v", path, i, s)
		}
		if s.Name == "request" {
			roots++
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("%s: span %d has parent %d: not a tree", path, s.ID, s.Parent)
		}
		p := tf.Spans[s.Parent-1]
		if s.StartUS < p.StartUS || s.EndUS > p.EndUS || s.Req != p.Req {
			t.Errorf("%s: span %s (%d) is not inside its parent %s", path, s.Name, s.ID, p.Name)
		}
	}
	if roots != requests {
		t.Errorf("%s: %d request spans, want %d", path, roots, requests)
	}
	tr := tracer{spans: tf.Spans}
	for i, self := range tr.selfTimes() {
		if self < -1e-6 {
			t.Errorf("%s: span %s has self time %v ms", path, tf.Spans[i].Name, self)
		}
	}
}

// TestWrongAnswerFailsTheRun corrupts one oracle label: the command must
// report the failures and exit non-zero.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	corruptOracle = true
	defer func() { corruptOracle = false }()
	var stdout bytes.Buffer
	code := realMain([]string{"--workload", "tiny_full_closed", "--seconds", "1", "--trace", "0"}, &stdout, io.Discard)
	if code == 0 {
		t.Error("exit code 0 with a wrong oracle")
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct %v, failed %d: a wrong answer went unnoticed", res.Correct, res.Failed)
	}
}

// TestCompareVerdicts feeds -compare two hand-made result files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s []float64, rps float64) string {
		var buf bytes.Buffer
		for i, p50 := range p50s {
			rec := record{Workload: "tiny_full_closed", Seed: uint64(i), result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{
					"latency_p50_ref":     {p50, "ref"},
					"throughput_per_kref": {rps, "1/kref"},
				}}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a.jsonl", []float64{1.00, 1.01, 0.99, 1.00}, 100)
	slower := write("b.jsonl", []float64{2.00, 2.01, 1.99, 2.00}, 101)
	noisy := write("c.jsonl", []float64{0.5, 0.9, 1.1, 1.5}, 99)

	var out bytes.Buffer
	if err := compareFiles(&out, steady, steady); err != nil || strings.Contains(out.String(), "worse") {
		t.Errorf("a file against itself: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, steady, slower); err == nil {
		t.Error("doubling the latency was not reported as worse")
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "latency_p50_ref") && !strings.Contains(line, "worse") {
			t.Errorf("latency line lacks the verdict: %s", line)
		}
		if strings.Contains(line, "throughput_per_kref") && !strings.Contains(line, "ok") {
			t.Errorf("throughput line should be ok: %s", line)
		}
	}
	out.Reset()
	if err := compareFiles(&out, steady, noisy); err != nil {
		t.Errorf("a noisy side is unresolved, not worse: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy side not reported as unresolved:\n%s", out.String())
	}
}
