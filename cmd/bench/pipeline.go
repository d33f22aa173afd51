package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"websnap/internal/sim"
)

// The pipeline experiment sweeps the K-way chain planner: chain depth ×
// client uplink bandwidth × mean per-server queueing load. Each request
// re-runs the cut-set DP against freshly drawn exponential queue delays —
// the same live-hint loop the runtime chain executor runs — and takes the
// better of the planned chain and local execution. The local and legacy
// 2-way rows are the baselines the chain rows are read against.

// pipelineJSONFile is where the machine-readable results are written
// (a variable so tests can redirect it away from the working tree).
var pipelineJSONFile = "BENCH_pipeline.json"

// pipelineRequests is the per-cell request count; the -pipeline-requests
// flag overrides it. CI runs the default and fails if the committed
// BENCH_pipeline.json does not reproduce.
var pipelineRequests = 200

func pipelineExp(w io.Writer) error {
	pts, err := sim.PipelineSweep(sim.PipelineConfig{Requests: pipelineRequests})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Pipeline sweep: K-way chain planner vs 2-way and local, GoogLeNet, %d requests per cell\n", pipelineRequests)
	fmt.Fprintln(w, "Policy\tDepth\tMbps\tLoad (ms)\tp50 (ms)\tp95 (ms)\tp99 (ms)\tRemote %\tLocal %\tDegraded %\tMean cuts")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%g\t%g\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			p.Policy, p.Depth, p.BandwidthMbps, p.LoadMillis,
			p.P50Millis, p.P95Millis, p.P99Millis,
			100*p.RemoteShare, 100*p.LocalShare, 100*p.DegradedShare, p.MeanCuts)
	}
	data, err := json.MarshalIndent(struct {
		Experiment string              `json:"experiment"`
		Rows       []sim.PipelinePoint `json:"rows"`
	}{"pipeline", pts}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(pipelineJSONFile, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("pipeline: write %s: %w", pipelineJSONFile, err)
	}
	fmt.Fprintf(w, "(raw numbers written to %s)\n", pipelineJSONFile)
	return nil
}
