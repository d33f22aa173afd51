package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"websnap/internal/sim"
)

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run("fig99", "table", sim.LoadConfig{}, &sb); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunSingleExperiments(t *testing.T) {
	tests := []struct {
		experiment string
		contains   []string
	}{
		{"fig1", []string{"Figure 1", "pool1", "[64 56 56]"}},
		{"fig6", []string{"Figure 6", "googlenet", "agenet", "gendernet"}},
		{"fig6gpu", []string{"GPU-accelerated", "googlenet"}},
		{"fig7", []string{"Figure 7", "Snapshot Capture (C)"}},
		{"fig8", []string{"Figure 8", "1st_pool"}},
		{"table1", []string{"Table 1", "VM overlay (MB)", "pre-sending"}},
		{"featsize", []string{"Feature data size", "1st_conv"}},
		{"sweep", []string{"Ablation", "30"}},
		{"load", []string{"Load sweep", "Fallback %"}},
	}
	for _, tt := range tests {
		t.Run(tt.experiment, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tt.experiment, "table", sim.LoadConfig{}, &sb); err != nil {
				t.Fatalf("run(%s): %v", tt.experiment, err)
			}
			out := sb.String()
			for _, want := range tt.contains {
				if !strings.Contains(out, want) {
					t.Errorf("output of %s missing %q", tt.experiment, want)
				}
			}
		})
	}
}

func TestRunCSVFormat(t *testing.T) {
	var sb strings.Builder
	if err := run("fig6", "csv", sim.LoadConfig{}, &sb); err != nil {
		t.Fatalf("csv: %v", err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# Figure 6") {
		t.Errorf("csv should start with a comment title, got %.40q", out)
	}
	if !strings.Contains(out, "googlenet,") {
		t.Errorf("csv rows missing: %.200q", out)
	}
	if err := run("fig6", "yaml", sim.LoadConfig{}, &sb); err == nil {
		t.Error("unknown format should fail")
	}
}

// TestRunFleet runs the fleet experiment at smoke scale and checks both
// the table and the BENCH_fleet.json schema the CI artifact promises:
// >= 2 placement policies x >= 3 fleet sizes, p95/p99 latency and
// re-upload bytes saved per cell.
func TestRunFleet(t *testing.T) {
	oldFile, oldClients := fleetJSONFile, fleetClients
	fleetJSONFile = filepath.Join(t.TempDir(), "BENCH_fleet.json")
	fleetClients = 64
	defer func() { fleetJSONFile, fleetClients = oldFile, oldClients }()
	var sb strings.Builder
	if err := run("fleet", "table", sim.LoadConfig{}, &sb); err != nil {
		t.Fatalf("run(fleet): %v", err)
	}
	for _, want := range []string{"Fleet sweep", "hash", "load", "Saved (MB)", "Exec per server"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
	data, err := os.ReadFile(fleetJSONFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string           `json:"experiment"`
		Rows       []sim.FleetPoint `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_fleet.json: %v", err)
	}
	if doc.Experiment != "fleet" {
		t.Errorf("experiment = %q, want fleet", doc.Experiment)
	}
	policies := map[string]bool{}
	sizes := map[int]bool{}
	for _, r := range doc.Rows {
		policies[r.Policy] = true
		sizes[r.Servers] = true
		if r.P95Millis <= 0 || r.P99Millis <= 0 {
			t.Errorf("row %s/%d: missing tail latency: %+v", r.Policy, r.Servers, r)
		}
		if r.ReuploadBytesSaved <= 0 {
			t.Errorf("row %s/%d: no re-upload bytes saved recorded", r.Policy, r.Servers)
		}
	}
	if len(policies) < 2 || len(sizes) < 3 {
		t.Errorf("sweep covers %d policies x %d fleet sizes, want >= 2 x >= 3", len(policies), len(sizes))
	}
}

// TestRunMux runs the mux experiment at smoke scale and checks the table
// and BENCH_mux.json schema: both topologies per stream count, tail
// latency per cell, and the connection-count contrast the tentpole
// promises (conn-per-session uses N, mux uses exactly 1).
func TestRunMux(t *testing.T) {
	oldFile, oldCounts, oldEvents := muxJSONFile, muxStreamCounts, muxEventsPerStream
	muxJSONFile = filepath.Join(t.TempDir(), "BENCH_mux.json")
	muxStreamCounts = []int{4, 8}
	muxEventsPerStream = 2
	defer func() { muxJSONFile, muxStreamCounts, muxEventsPerStream = oldFile, oldCounts, oldEvents }()
	var sb strings.Builder
	if err := run("mux", "table", sim.LoadConfig{}, &sb); err != nil {
		t.Fatalf("run(mux): %v", err)
	}
	for _, want := range []string{"Mux sweep", "conn-per-session", "mux-one-conn"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
	data, err := os.ReadFile(muxJSONFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string   `json:"experiment"`
		Rows       []muxRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_mux.json: %v", err)
	}
	if doc.Experiment != "mux" {
		t.Errorf("experiment = %q, want mux", doc.Experiment)
	}
	if len(doc.Rows) != 2*len(muxStreamCounts) {
		t.Fatalf("rows = %d, want %d (both modes per stream count)", len(doc.Rows), 2*len(muxStreamCounts))
	}
	for _, r := range doc.Rows {
		if r.P50Millis <= 0 || r.P99Millis <= 0 {
			t.Errorf("row %s/%d: missing latency percentiles: %+v", r.Mode, r.Streams, r)
		}
		if r.Requests != r.Streams*muxEventsPerStream {
			t.Errorf("row %s/%d: %d requests, want %d", r.Mode, r.Streams, r.Requests, r.Streams*muxEventsPerStream)
		}
		switch r.Mode {
		case "conn-per-session":
			if r.Conns != r.Streams {
				t.Errorf("baseline at %d streams used %d conns, want one per session", r.Streams, r.Conns)
			}
		case "mux-one-conn":
			if r.Conns != 1 {
				t.Errorf("mux cell at %d streams used %d conns, want exactly 1", r.Streams, r.Conns)
			}
		default:
			t.Errorf("unknown mode %q", r.Mode)
		}
	}
}

// TestRunPipeline runs the pipeline experiment at smoke scale and checks
// the table and BENCH_pipeline.json schema: local, 2-way, and chain rows
// per sweep cell, latency percentiles, and a sane decision mix.
func TestRunPipeline(t *testing.T) {
	oldFile, oldRequests := pipelineJSONFile, pipelineRequests
	pipelineJSONFile = filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	pipelineRequests = 20
	defer func() { pipelineJSONFile, pipelineRequests = oldFile, oldRequests }()
	var sb strings.Builder
	if err := run("pipeline", "table", sim.LoadConfig{}, &sb); err != nil {
		t.Fatalf("run(pipeline): %v", err)
	}
	for _, want := range []string{"Pipeline sweep", "local", "2way", "chain", "Mean cuts"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table output missing %q", want)
		}
	}
	data, err := os.ReadFile(pipelineJSONFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string              `json:"experiment"`
		Rows       []sim.PipelinePoint `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH_pipeline.json: %v", err)
	}
	if doc.Experiment != "pipeline" {
		t.Errorf("experiment = %q, want pipeline", doc.Experiment)
	}
	policies := map[string]bool{}
	depths := map[int]bool{}
	for _, r := range doc.Rows {
		policies[r.Policy] = true
		if r.Policy == sim.PipelinePolicyChain {
			depths[r.Depth] = true
		}
		if r.P50Millis <= 0 || r.P95Millis <= 0 || r.P99Millis <= 0 {
			t.Errorf("row %s/%d: missing latency percentiles: %+v", r.Policy, r.Depth, r)
		}
		if r.Policy != sim.PipelinePolicyLocal {
			if sum := r.RemoteShare + r.LocalShare; sum < 0.999 || sum > 1.001 {
				t.Errorf("row %s/%d: decision mix sums to %f", r.Policy, r.Depth, sum)
			}
		}
	}
	if len(policies) < 3 || len(depths) < 3 {
		t.Errorf("sweep covers %d policies x %d chain depths, want >= 3 x >= 3", len(policies), len(depths))
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	old := engineJSONFile
	engineJSONFile = filepath.Join(t.TempDir(), "BENCH_engine.json")
	oldFleet := fleetJSONFile
	fleetJSONFile = filepath.Join(t.TempDir(), "BENCH_fleet.json")
	oldMux := muxJSONFile
	muxJSONFile = filepath.Join(t.TempDir(), "BENCH_mux.json")
	oldPipeline, oldPipelineReq := pipelineJSONFile, pipelineRequests
	pipelineJSONFile = filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	pipelineRequests = 20
	defer func() {
		engineJSONFile, fleetJSONFile, muxJSONFile = old, oldFleet, oldMux
		pipelineJSONFile, pipelineRequests = oldPipeline, oldPipelineReq
	}()
	var sb strings.Builder
	if err := run("all", "table", sim.LoadConfig{}, &sb); err != nil {
		t.Fatalf("run(all): %v", err)
	}
	for _, want := range []string{"Figure 1", "Figure 6", "Figure 7", "Figure 8", "Table 1", "Engine comparison", "partition points", "Fleet sweep", "Mux sweep", "Pipeline sweep"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q", want)
		}
	}
}
