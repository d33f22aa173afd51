// Command benchmark is the repository's end-to-end offload benchmark: it
// starts an in-process edge server on a real loopback listener, drives one of
// four closed-loop workloads through core.Session.Classify, checks every
// answer against a local oracle, and reports named metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a result with its provenance, appended to the -out file; it is
// what -compare reads.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	Raw      rawTimes `json:"raw"`
	result
}

// corruptOracle makes the oracle wrong about one image; the self-test uses
// it to prove a wrong answer fails the run.
var corruptOracle = false

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "seed the input images are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	out := fs.String("out", "", "append each result, with host stamp, to this JSON-lines file")
	outDir := fs.String("outdir", "benchmark/out", "directory for trace_<workload>.json")
	compare := fs.String("compare", "", "compare two -out files: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		if err := compareFiles(stdout, *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "seconds must be at least 1 and trace 0 or 1")
		return 2
	}
	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		run = []*workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir}
	host := readHost()
	fmt.Fprintf(stderr, "host: %s, nproc %d, GOMAXPROCS %d, simd %v, %s, commit %s\n",
		host.CPU, host.NumCPU, host.GOMAXPROCS, host.SIMD, host.GoVersion, host.Commit)
	code := 0
	for _, w := range run {
		o, err := runWorkload(w, cfg, host, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		res := o.result(cfg.trace)
		printTable(stderr, w.name, res)
		fmt.Fprintf(stderr, "  raw: latency_p50 %.4g ms, throughput %.4g 1/s, cpu %.4g ms/req; 1 ref = %.4g ms\n",
			o.raw.P50MS, o.raw.RPS, o.raw.CPUMSPerReq, o.raw.RefMS)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: host, Raw: o.raw, result: res}); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

// outcome is everything one run of a workload measured. perLayer is nil on
// an untraced run; raw holds the window's times in plain units, which the
// end-to-end table reports relative to the frozen reference.
type outcome struct {
	attempted, failed  int
	endToEnd, perLayer map[string]metricValue
	raw                rawTimes
}

// rawTimes are a window's user-visible times before they are divided by the
// frozen reference's.
type rawTimes struct {
	P50MS       float64 `json:"latency_p50_ms"`
	RPS         float64 `json:"throughput_rps"`
	CPUMSPerReq float64 `json:"cpu_ms_per_req"`
	RefMS       float64 `json:"host_ref_ms"`
	RefSpread   float64 `json:"host_ref_spread_frac"`
}

// result picks the table the run was asked for.
func (o outcome) result(trace bool) result {
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.endToEnd}
	if trace {
		res.Metrics = o.perLayer
	}
	return res
}

// unstableSpread is the spread of the frozen reference's time within a
// window beyond which the host is reported as unstable.
const unstableSpread = 0.10

// runWorkload sets a workload up, measures one window and, on a traced run,
// makes the traced pass.
func runWorkload(w *workload, cfg runConfig, host hostInfo, stderr io.Writer) (outcome, error) {
	var out outcome
	setups := w.setups
	if cfg.trace {
		setups = 1 // a traced run does not report setup_s
	}
	var (
		e          *env
		setupTimes []float64
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(w, cfg.seed, stderr); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer e.close()
	if err := e.computeOracle(); err != nil {
		return out, err
	}
	if corruptOracle {
		e.oracle[0].label += "?"
	}
	sampler := startRefSampler()
	win := e.drive(time.Duration(cfg.seconds) * time.Second)
	refs := sampler.finish()
	complaints := e.reconcile()
	for _, c := range complaints {
		fmt.Fprintf(stderr, "%s: %s\n", w.name, c)
	}
	out.attempted = win.attempted
	out.failed = win.failed + len(complaints)
	n := float64(len(win.latMS))
	out.raw = rawTimes{
		P50MS:       median(win.latMS),
		RPS:         ratio(n, win.elapsed.Seconds()),
		CPUMSPerReq: ratio(ms(win.cpu), n),
		RefMS:       median(refs),
		RefSpread:   spread(refs),
	}
	if out.raw.RefSpread > unstableSpread {
		fmt.Fprintf(stderr, "%s: host_unstable: frozen reference %.3f ms, quartiles %.0f %% apart\n",
			w.name, out.raw.RefMS, 100*out.raw.RefSpread)
	}

	// Bytes per offload are exact for an image, so the mean over the pool
	// images the window reached does not depend on where the window ended.
	var wire, reached float64
	for _, b := range e.wireBytes {
		if b > 0 {
			wire += float64(b)
			reached++
		}
	}
	set := newMetricSet(endToEnd)
	set.set("setup_s", median(setupTimes))
	set.set("latency_p50_ref", ratio(out.raw.P50MS, out.raw.RefMS))
	set.set("throughput_per_kref", out.raw.RPS*out.raw.RefMS)
	set.set("wire_bytes_per_req", ratio(wire, reached))
	set.set("cpu_per_req_ref", ratio(out.raw.CPUMSPerReq, out.raw.RefMS))
	set.set("alloc_mb_per_req", ratio(float64(win.allocBytes)/1e6, n))
	var err error
	if out.endToEnd, err = set.finish(); err != nil {
		return out, err
	}
	if !cfg.trace {
		return out, nil
	}
	layers := newMetricSet(perLayer)
	failed, err := e.layerMetrics(layers, win, out.raw, cfg, host)
	if err != nil {
		return out, err
	}
	out.failed += failed
	out.attempted += w.traced
	out.perLayer, err = layers.finish()
	return out, err
}
