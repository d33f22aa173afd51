// Command offload runs one of the benchmark ML web apps on the "client
// device" against an edge server, with a chosen offloading strategy and
// optional bandwidth shaping, and reports the measured wall-clock times —
// the runnable counterpart of the paper's Fig 6 configurations.
//
//	offload -server 127.0.0.1:7080 -model tinynet -mode full
//	offload -server 127.0.0.1:7080 -model googlenet -mode partial -split 1st_pool -bandwidth 30
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"websnap"
	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/imageio"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/tensor"
)

func main() {
	var (
		server    = flag.String("server", "127.0.0.1:7080", "edge server address")
		modelName = flag.String("model", "tinynet",
			"model: tinynet, googlenet, agenet, gendernet")
		mode      = flag.String("mode", "full", "offloading mode: local, full, partial, auto")
		split     = flag.String("split", "", "partial-inference point (e.g. 1st_pool); empty = dynamic")
		bandwidth = flag.Float64("bandwidth", 0, "shape the link to this many Mbit/s (0 = unshaped)")
		preSend   = flag.Bool("presend", true, "pre-send the model when the app starts")
		imagePath = flag.String("image", "", "classify this PNG/JPEG file (empty = synthetic pixels)")
		runs      = flag.Int("runs", 1, "number of inference runs")
		metrics   = flag.String("metrics-addr", "",
			"serve client-side metrics on this address (e.g. 127.0.0.1:7081) while running")
		auditLog = flag.String("audit-log", "",
			"append one JSON line per offload decision to this file (- = stderr)")
		quality = flag.String("quality", "",
			"model quality tier: float32 (default) or int8 (calibrated quantized kernels)")
	)
	flag.Parse()
	if err := run(*server, *modelName, *mode, *split, *bandwidth, *preSend, *imagePath, *runs, *metrics, *auditLog, *quality); err != nil {
		fmt.Fprintln(os.Stderr, "offload:", err)
		os.Exit(1)
	}
}

// newAuditor builds the session's decision auditor: counters in reg,
// optionally teeing each decision as a JSON line to auditLog.
func newAuditor(reg *obs.Registry, auditLog string) (*obs.Auditor, func(), error) {
	opts := obs.AuditorOptions{Registry: reg, Keep: 64}
	cleanup := func() {}
	switch auditLog {
	case "":
	case "-":
		opts.Sink = os.Stderr
	default:
		f, err := os.OpenFile(auditLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		opts.Sink = f
		cleanup = func() { f.Close() }
	}
	return obs.NewAuditor(opts), cleanup, nil
}

// serveMetrics exposes the client-side registry — the auditor's decision
// counters and prediction-error quantiles among it — on addr.
func serveMetrics(addr string, reg *obs.Registry) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() *obs.Registry { return reg }))
	fmt.Printf("client metrics on http://%s/metrics\n", ln.Addr())
	go http.Serve(ln, mux)
	return nil
}

// printAudit dumps the decision mix and prediction-error quantiles
// accumulated over the run.
func printAudit(w io.Writer, audit *obs.Auditor) {
	sum := audit.Summary()
	if sum.Total == 0 {
		return
	}
	fmt.Fprintf(w, "decisions: total=%d", sum.Total)
	for _, pc := range sum.Mix {
		fmt.Fprintf(w, " %s=%d", pc.Path, pc.Count)
	}
	fmt.Fprintln(w)
	if pe := sum.PredErr; pe.Count > 0 {
		fmt.Fprintf(w, "prediction error (relative): n=%d p50=%+.2f p95=%+.2f |p50|=%.2f |p95|=%.2f\n",
			pe.Count, pe.P50, pe.P95, pe.AbsP50, pe.AbsP95)
	}
}

func buildModel(name string) (*nn.Network, []string, error) {
	if name == "tinynet" {
		m, err := models.BuildTinyNet("tinynet", 3)
		return m, []string{"cat", "dog", "bird"}, err
	}
	m, err := models.Build(name)
	if err != nil {
		return nil, nil, err
	}
	out, err := m.OutputShape()
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, out[len(out)-1])
	for i := range labels {
		labels[i] = fmt.Sprintf("label_%04d", i)
	}
	return m, labels, nil
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "local":
		return core.ModeLocal, nil
	case "full":
		return core.ModeFull, nil
	case "partial":
		return core.ModePartial, nil
	case "auto":
		return core.ModeAuto, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// connect dials the edge server for cfg. A positive bandwidthMbps shapes the
// link, and the session's partition decision is solved for that same link;
// otherwise it is solved for the default one.
func connect(cfg *core.SessionConfig, server string, bandwidthMbps float64) error {
	raw, err := net.Dial("tcp", server)
	if err != nil {
		return fmt.Errorf("dial %s: %w", server, err)
	}
	if bandwidthMbps > 0 {
		cfg.Network = netem.Profile{BandwidthBitsPerSec: bandwidthMbps * 1e6, Latency: 2 * time.Millisecond}
		raw = netem.Shape(raw, cfg.Network)
	}
	cfg.Conn = client.NewConn(raw)
	return nil
}

func run(server, modelName, modeStr, split string, bandwidthMbps float64, preSend bool, imagePath string, runs int, metricsAddr, auditLog, quality string) error {
	model, labels, err := buildModel(modelName)
	if err != nil {
		return err
	}
	mode, err := parseMode(modeStr)
	if err != nil {
		return err
	}
	prec, err := nn.ParsePrecision(quality)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	audit, closeAudit, err := newAuditor(reg, auditLog)
	if err != nil {
		return err
	}
	defer closeAudit()
	if metricsAddr != "" {
		if err := serveMetrics(metricsAddr, reg); err != nil {
			return err
		}
	}
	cfg := core.SessionConfig{
		AppID:      fmt.Sprintf("offload-cli-%d", os.Getpid()),
		ModelName:  modelName,
		Model:      model,
		Labels:     labels,
		Mode:       mode,
		PreSend:    preSend,
		SplitLabel: split,
		Quality:    prec,
		Audit:      audit,
	}
	if mode != core.ModeLocal {
		if err := connect(&cfg, server, bandwidthMbps); err != nil {
			return err
		}
		defer cfg.Conn.Close()
	}
	start := time.Now()
	session, err := core.NewSession(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("session: model=%s mode=%s quality=%s", modelName, session.Mode(), prec)
	if session.Mode() == core.ModePartial {
		fmt.Printf(" split=%s", session.SplitLabel())
	}
	fmt.Println()
	if preSend && mode != core.ModeLocal {
		if err := session.WaitForModelUpload(); err != nil {
			return err
		}
		fmt.Printf("model upload + ACK: %v\n", time.Since(start).Round(time.Millisecond))
	}
	volume := tensor.Volume(model.InputShape())
	var fileImg websnap.Float32Array
	if imagePath != "" {
		fileImg, err = imageio.Load(imagePath, model.InputShape(), imageio.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("loaded %s (%d pixels)\n", imagePath, len(fileImg))
	}
	for i := 0; i < runs; i++ {
		img := fileImg
		if img == nil {
			img = mlapp.SyntheticImage(volume, uint64(i+1))
		}
		t0 := time.Now()
		result, err := session.Classify(img)
		if err != nil {
			return err
		}
		fmt.Printf("run %d: result=%q inference=%v\n", i+1, result,
			time.Since(t0).Round(time.Millisecond))
	}
	st := session.Stats()
	fmt.Printf("stats: offloads=%d fallbacks=%d lastSnapshot=%dB lastResult=%dB inlineModel=%dB packed=%d uplink=%.1fMB/s\n",
		st.Offloads, st.LocalFallbacks, st.LastSnapshotBytes,
		st.LastResultBytes, st.LastInlineModelBytes, st.PackedOffloads, st.UplinkBytesPerSec/1e6)
	printAudit(os.Stdout, audit)
	return nil
}
