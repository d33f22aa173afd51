// Command bench regenerates every table and figure of the paper's
// evaluation section as text tables:
//
//	bench -experiment fig6     inference time per configuration (Fig 6)
//	bench -experiment fig7     breakdown of the inference time (Fig 7)
//	bench -experiment fig8     partial inference sweep (Fig 8)
//	bench -experiment table1   VM-based installation overhead (Table 1)
//	bench -experiment fig1     GoogLeNet architecture walk-through (Fig 1)
//	bench -experiment featsize feature data size per offloading point (§IV.B)
//	bench -experiment load     edge scheduler under concurrent clients
//	bench -experiment engine   planned forward pass at the float32 and int8 tiers
//	bench -experiment quantshift  optimal split per quality tier (float32 vs int8)
//	bench -experiment fleet    placement policies over multi-server fleets
//	bench -experiment mux      multiplexed streams vs one connection per session
//	bench -experiment pipeline K-way chain planner vs 2-way and local baselines
//	bench -experiment all      everything
//
// The engine experiment additionally writes BENCH_engine.json with the raw
// per-tier numbers (ns/op, allocs/op, B/op); the fleet experiment
// writes BENCH_fleet.json with per-(policy, fleet size) tail latency,
// decision mix, and re-upload bytes saved; the mux experiment writes
// BENCH_mux.json with per-stream latency percentiles and connection
// counts for both topologies, measured over real sockets; the pipeline
// experiment writes BENCH_pipeline.json with per-policy latency
// percentiles and the chain/local decision mix per sweep cell.
//
// The load experiment takes the scheduler knobs -workers, -queue and
// -batch, mirroring cmd/edged's flags. The fleet experiment takes
// -fleet-clients, the number of roaming closed-loop sessions per cell.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"websnap/internal/obs"
	"websnap/internal/sim"
)

func main() {
	experiment := flag.String("experiment", "all",
		"experiment to run: fig1, fig6, fig6gpu, fig7, fig8, table1, featsize, sweep, load, engine, quantshift, fleet, mux, pipeline, all")
	format := flag.String("format", "table", "output format: table, csv")
	var lc sim.LoadConfig
	flag.IntVar(&lc.Workers, "workers", 0, "load experiment: scheduler worker count (0 = default)")
	flag.IntVar(&lc.QueueDepth, "queue", 0, "load experiment: admission queue depth (0 = default)")
	flag.IntVar(&lc.MaxBatch, "batch", 8, "load experiment: max coalesced batch size")
	flag.IntVar(&fleetClients, "fleet-clients", fleetClients, "fleet experiment: closed-loop sessions per cell")
	flag.IntVar(&pipelineRequests, "pipeline-requests", pipelineRequests, "pipeline experiment: simulated requests per sweep cell")
	flag.Parse()
	if err := run(*experiment, *format, lc, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(experiment, format string, lc sim.LoadConfig, out io.Writer) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	runners := map[string]func(io.Writer) error{
		"fig1":     fig1,
		"fig6":     fig6,
		"fig6gpu":  fig6gpu,
		"fig7":     fig7,
		"fig8":     fig8,
		"table1":   table1,
		"featsize": featsize,
		"sweep":    sweep,
		"load":     func(w io.Writer) error { return load(w, lc) },
		"engine":   engine,
		"fleet":    fleetExp,
		"mux":      muxExp,
		"pipeline": pipelineExp,
		"quantshift": func(w io.Writer) error {
			rows, err := sim.QuantShift()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Quantized-split experiment: optimal denatured offloading point per quality tier")
			fmt.Fprintln(w, "Model\tQuality\tBest point\tClient exec\tServer exec\tTotal")
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
					r.Model, r.Precision, r.BestLabel, secs(r.ClientTime), secs(r.ServerTime), secs(r.Total))
			}
			return nil
		},
	}
	order := []string{"fig1", "fig6", "fig6gpu", "fig7", "fig8", "table1", "featsize", "sweep", "load", "engine", "quantshift", "fleet", "mux", "pipeline"}
	selected := []string{experiment}
	if experiment == "all" {
		selected = order
	}
	for _, name := range selected {
		fn, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %s, all)",
				name, strings.Join(order, ", "))
		}
		if format == "csv" {
			var buf strings.Builder
			if err := fn(&buf); err != nil {
				return err
			}
			if err := writeCSV(out, buf.String()); err != nil {
				return err
			}
			continue
		}
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		if err := fn(w); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// writeCSV re-emits the tab-separated experiment rows as RFC-4180 CSV. The
// leading title line becomes a comment.
func writeCSV(out io.Writer, tabbed string) error {
	cw := csv.NewWriter(out)
	for i, line := range strings.Split(strings.TrimRight(tabbed, "\n"), "\n") {
		if i == 0 {
			if _, err := fmt.Fprintf(out, "# %s\n", strings.TrimSpace(line)); err != nil {
				return err
			}
			continue
		}
		fields := strings.Split(line, "\t")
		for j := range fields {
			fields[j] = strings.TrimSpace(fields[j])
		}
		if err := cw.Write(fields); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(out)
	return err
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

func fig6(w io.Writer) error {
	return fig6Table(w, sim.Fig6, "Figure 6: Execution time of inference in three web apps (seconds)")
}

func fig6gpu(w io.Writer) error {
	return fig6Table(w, sim.Fig6GPU, "Projection: Fig 6 with a GPU-accelerated edge server (webGL ~80x, per the paper's §IV.A remark; seconds)")
}

func fig6Table(w io.Writer, rows func() ([]sim.Fig6Row, error), title string) error {
	rs, err := rows()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "Model\tClient\tServer\tOffload(before ACK)\tOffload(after ACK)\tOffload(partial)")
	for _, r := range rs {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Model, secs(r.Client), secs(r.Server), secs(r.BeforeACK),
			secs(r.AfterACK), secs(r.Partial))
	}
	return nil
}

func fig7(w io.Writer) error {
	bds, err := sim.Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: Breakdown of the inference time (seconds)")
	header := []string{"Model", "Config"}
	for _, p := range sim.AllPhases() {
		header = append(header, string(p))
	}
	header = append(header, "Total")
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, b := range bds {
		row := []string{b.Model, b.Config}
		for _, p := range sim.AllPhases() {
			row = append(row, secs(b.Get(p)))
		}
		row = append(row, secs(b.Total()))
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	return nil
}

func fig8(w io.Writer) error {
	rows, err := sim.Fig8()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8: Inference time with partial inference at various offloading points (seconds)")
	fmt.Fprintln(w, "Model\tOffloading point\tClient exec\tTransfer\tServer exec\tSnapshot ovh\tTotal\tFeature (MB)")
	for _, r := range rows {
		for _, c := range r.Candidates {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				r.Model, c.Point.Label, secs(c.ClientTime), secs(c.TransferTime),
				secs(c.ServerTime), secs(c.SnapshotOverhead), secs(c.Total),
				mb(c.FeatureTextBytes))
		}
	}
	return nil
}

func table1(w io.Writer) error {
	rows, err := sim.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1: Overhead of VM-based installation for snapshot-based offloading")
	fmt.Fprintln(w, "Configuration\tMetric\tGoogLeNet\tAgeNet\tGenderNet")
	line := func(config, metric string, get func(sim.Table1Row) string) {
		cells := []string{config, metric}
		for _, r := range rows {
			cells = append(cells, get(r))
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	line("VM synthesis", "Synthesis time (s)", func(r sim.Table1Row) string { return secs(r.SynthesisTime) })
	line("VM synthesis", "VM overlay (MB)", func(r sim.Table1Row) string { return mb(r.OverlayBytes) })
	line("Offloading (w/ pre-sending)", "Migration time (s)",
		func(r sim.Table1Row) string { return secs(r.MigrationWithPre) })
	line("Offloading (w/ pre-sending)", "Snapshot except feature data (MB)",
		func(r sim.Table1Row) string { return mb(r.SansFeatureWithPre) })
	line("Offloading (w/o pre-sending)", "Migration time (s)",
		func(r sim.Table1Row) string { return secs(r.MigrationWithoutPre) })
	line("Offloading (w/o pre-sending)", "Snapshot except feature data (MB)",
		func(r sim.Table1Row) string { return mb(r.SansFeatureWithoutPre) })
	return nil
}

func fig1(w io.Writer) error {
	rows, err := sim.Fig1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1: GoogLeNet architecture and feature data dimensions")
	fmt.Fprintln(w, "Layer\tType\tOutput shape\tFeature (KB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%d\n", r.Layer, r.Type, r.OutputShape, r.FeatureKB)
	}
	return nil
}

func sweep(w io.Writer) error {
	mbps := []float64{1, 2, 5, 10, 30, 100, 300, 1000}
	fmt.Fprintln(w, "Ablation: offloading configurations vs bandwidth (GoogLeNet, seconds)")
	fmt.Fprintln(w, "Bandwidth (Mbps)\tClient\tBefore ACK\tAfter ACK\tBest partial point\tBest partial")
	pts, err := sim.BandwidthSweep("googlenet", mbps)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Fprintf(w, "%.0f\t%s\t%s\t%s\t%s\t%s\n",
			p.BandwidthMbps, secs(p.ClientOnly), secs(p.BeforeACK), secs(p.AfterACK),
			p.BestLabel, secs(p.BestTotal))
	}
	return nil
}

// loadClients is the default concurrency sweep of the load experiment.
var loadClients = []int{1, 2, 4, 8, 16, 32, 64}

func load(w io.Writer, lc sim.LoadConfig) error {
	if lc.MaxBatch < 1 {
		lc.MaxBatch = 1
	}
	pts, err := sim.LoadSweep("googlenet", loadClients, lc)
	if err != nil {
		return err
	}
	base := lc
	base.MaxBatch = 1
	basePts, err := sim.LoadSweep("googlenet", loadClients, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Load sweep: concurrent partial-offload clients, GoogLeNet @ %s (batch=%d vs batch=1)\n",
		sim.PartialPointUsed, lc.MaxBatch)
	fmt.Fprintln(w, "Clients\tOffloaded/s\tOffloaded/s (batch=1)\tTotal/s\tp50 (s)\tp99 (s)\tFallback %")
	for i, p := range pts {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\t%s\t%s\t%.0f\n",
			p.Clients, p.OffloadedThroughput, basePts[i].OffloadedThroughput,
			p.Throughput, secs(p.P50), secs(p.P99), 100*p.FallbackRate())
	}
	fmt.Fprintln(w)
	if err := stageBreakdown(w, pts); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return decisionMix(w, pts)
}

// decisionMix prints the audit view of the sweep: how the offload decision
// split between served-at-the-edge and overload fallback at each load, and
// how far the cost model's unloaded prediction drifted from the simulated
// latency (signed relative error; positive = slower than predicted).
func decisionMix(w io.Writer, pts []sim.LoadPoint) error {
	fmt.Fprintln(w, "Decision mix and cost-model prediction error per load")
	fmt.Fprintln(w, "Clients\tPartial\tFallback\tFallback %\tPred err p50\tPred err p95\t|Pred err| p50\t|Pred err| p95")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\t%+.2f\t%+.2f\t%.2f\t%.2f\n",
			p.Clients, pathCount(p.Mix, obs.PathPartial), pathCount(p.Mix, obs.PathFallback),
			100*p.FallbackRate(),
			p.PredErr.P50, p.PredErr.P95, p.PredErr.AbsP50, p.PredErr.AbsP95)
	}
	return nil
}

// pathCount is how many decisions of a mix took the given path.
func pathCount(mix []obs.PathCount, path obs.DecisionPath) int64 {
	for _, pc := range mix {
		if pc.Path == path {
			return pc.Count
		}
	}
	return 0
}

// stageBreakdown prints the per-stage latency percentiles of the offload
// pipeline at the lightest and heaviest points of the sweep. Percentiles —
// not means — are the point: the queue stage's p99 explodes at saturation
// long before its mean moves, and the fixed stages confirm they stay flat.
func stageBreakdown(w io.Writer, pts []sim.LoadPoint) error {
	lo, hi := pts[0], pts[len(pts)-1]
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
	}
	fmt.Fprintf(w, "Per-stage latency (ms): %d clients vs %d clients\n", lo.Clients, hi.Clients)
	fmt.Fprintf(w, "Stage\tp50 (c=%d)\tp95 (c=%d)\tp99 (c=%d)\tp50 (c=%d)\tp95 (c=%d)\tp99 (c=%d)\n",
		lo.Clients, lo.Clients, lo.Clients, hi.Clients, hi.Clients, hi.Clients)
	hiStages := make(map[string][3]time.Duration, len(hi.Stages))
	for _, s := range hi.Stages {
		hiStages[string(s.Stage)] = [3]time.Duration{s.P50, s.P95, s.P99}
	}
	for _, s := range lo.Stages {
		h := hiStages[string(s.Stage)]
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			s.Stage, ms(s.P50), ms(s.P95), ms(s.P99), ms(h[0]), ms(h[1]), ms(h[2]))
	}
	return nil
}

func featsize(w io.Writer) error {
	rows, err := sim.FeatureSizes()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Feature data size at each offloading point (snapshot text, MB) — §IV.B")
	fmt.Fprintln(w, "Model\tOffloading point\tFeature (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Model, r.Label, mb(r.TextBytes))
	}
	return nil
}
