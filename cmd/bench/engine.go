package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"websnap/internal/costmodel"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/tensor"
)

// The engine experiment measures each model's forward pass on this host at
// both quality tiers — through the cached float32 ExecPlan (pooled arena,
// in-place steps, packed implicit-GEMM convolution) and through the
// calibrated int8 quantized plan — and reports ns/op, allocs/op and B/op for
// each, plus the int8 tier's speedup over float32. Results also land in
// BENCH_engine.json next to the working directory. The times are wall clock
// on whatever host runs it: they compare tiers within one run, not commits.

// engineJSONFile is where the machine-readable results are written
// (a variable so tests can redirect it away from the working tree).
var engineJSONFile = "BENCH_engine.json"

type engineStats struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

type engineRow struct {
	Model string `json:"model"`
	// Float32 is the planned float32 forward pass's cost.
	Float32 engineStats `json:"float32"`
	// Int8 is the calibrated quantized plan's cost (same input, same
	// plan cache discipline as Float32).
	Int8 engineStats `json:"int8"`
	// Int8Speedup is float32/int8 wall time (>1 means the quantized plan
	// beats the float32 plan).
	Int8Speedup float64 `json:"int8_speedup"`
}

type engineReport struct {
	Experiment string      `json:"experiment"`
	Rows       []engineRow `json:"rows"`
}

// measureEngine times iters calls of f after one untimed warmup (which
// absorbs plan compilation and pool priming), reading allocation counters
// around the loop.
func measureEngine(iters int, f func() error) (engineStats, error) {
	if err := f(); err != nil {
		return engineStats{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return engineStats{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return engineStats{
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

func engine(w io.Writer) error {
	cases := []struct {
		name  string
		iters int
	}{
		{"tinynet", 100},
		{"agenet", 5},
		{"googlenet", 5},
	}
	fmt.Fprintln(w, "Engine comparison: planned float32 execution vs int8 plan (per inference)")
	fmt.Fprintln(w, "Model\tTier\tms/op\tallocs/op\tKB/op\tSpeedup")
	var rows []engineRow
	for _, tc := range cases {
		var (
			net *nn.Network
			err error
		)
		if tc.name == "tinynet" {
			net, err = models.BuildTinyNet("tinynet", 3)
		} else {
			net, err = models.Build(tc.name)
		}
		if err != nil {
			return err
		}
		in, err := tensor.New(net.InputShape()...)
		if err != nil {
			return err
		}
		for i := range in.Data() {
			in.Data()[i] = float32(i%255)/255 - 0.5
		}
		row := engineRow{Model: tc.name}
		if row.Float32, err = measureEngine(tc.iters, func() error {
			_, err := net.Forward(in)
			return err
		}); err != nil {
			return fmt.Errorf("engine %s float32: %w", tc.name, err)
		}
		if row.Int8, err = measureEngine(tc.iters, func() error {
			_, err := net.ForwardPrec(in, nn.PrecInt8)
			return err
		}); err != nil {
			return fmt.Errorf("engine %s int8: %w", tc.name, err)
		}
		if row.Int8.NsPerOp > 0 {
			row.Int8Speedup = row.Float32.NsPerOp / row.Int8.NsPerOp
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%s\tfloat32\t%.2f\t%.0f\t%.0f\t\n",
			tc.name, row.Float32.NsPerOp/1e6, row.Float32.AllocsPerOp, row.Float32.BytesPerOp/1024)
		fmt.Fprintf(w, "%s\tint8\t%.2f\t%.0f\t%.0f\t%.2fx\n",
			tc.name, row.Int8.NsPerOp/1e6, row.Int8.AllocsPerOp, row.Int8.BytesPerOp/1024,
			row.Int8Speedup)
	}
	data, err := json.MarshalIndent(engineReport{Experiment: "engine", Rows: rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(engineJSONFile, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("engine: write %s: %w", engineJSONFile, err)
	}
	fmt.Fprintf(w, "(raw numbers written to %s)\n", engineJSONFile)
	return enginePartition(w)
}

// enginePartition recalibrates GoogLeNet's partition-point latencies on
// this host at both quality tiers. The float32 client device is profiled
// through the planned engine (costmodel.Profile times each plan step with
// the production kernels) and the int8 client through the quantized plan
// (costmodel.ProfilePrec), so both columns reflect measured kernels; the
// server keeps the paper's ~10x client/server throughput ratio with the
// calibrated 2x int8 factor, and the network stays at 30 Mbps. Comparing
// the two chosen splits shows the DynO effect: the client gains more from
// int8 than the server, so the optimal cut moves toward the back of the
// network.
func enginePartition(w io.Writer) error {
	net, err := models.Build(models.GoogLeNet)
	if err != nil {
		return err
	}
	client, err := costmodel.Profile("this-host", net, 2)
	if err != nil {
		return err
	}
	server := client
	server.Name = "this-host-server-10x"
	server.FLOPSByType = make(map[nn.LayerType]float64, len(client.FLOPSByType))
	for typ, fl := range client.FLOPSByType {
		server.FLOPSByType[typ] = fl * 10
	}
	server.DefaultFLOPS = client.DefaultFLOPS * 10
	server.LayerOverhead = costmodel.ServerX86.LayerOverhead
	server.SnapshotFixed = costmodel.ServerX86.SnapshotFixed
	server.SnapshotBytesPerSec = costmodel.ServerX86.SnapshotBytesPerSec
	server.Int8Speedup = costmodel.ServerX86.Int8Speedup

	plan, err := partition.Analyze(net, partition.Config{
		Client:  client,
		Server:  server,
		Network: netem.WiFi30Mbps,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nGoogLeNet partition points, client profiled through plans on this host (float32)")
	printPartition(w, plan)

	// Quantized table: the client is re-profiled through the int8 plan
	// (its measured throughputs already include the quantization gains,
	// so its Int8Speedup stays unset); the server applies its calibrated
	// int8 factor via Precision.
	clientQ, err := costmodel.ProfilePrec("this-host-int8", net, 2, nn.PrecInt8)
	if err != nil {
		return err
	}
	clientQ.LayerOverhead = client.LayerOverhead
	clientQ.SnapshotFixed = client.SnapshotFixed
	clientQ.SnapshotBytesPerSec = client.SnapshotBytesPerSec
	planQ, err := partition.Analyze(net, partition.Config{
		Client:    clientQ,
		Server:    server,
		Network:   netem.WiFi30Mbps,
		Precision: nn.PrecInt8,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nGoogLeNet partition points at the int8 quality tier (same host, same link)")
	printPartition(w, planQ)

	if best, err := plan.Choose(true); err == nil {
		if bestQ, errQ := planQ.Choose(true); errQ == nil {
			fmt.Fprintf(w, "\nchosen split: float32=%s int8=%s\n", best.Point.Label, bestQ.Point.Label)
		}
	}
	return nil
}

func printPartition(w io.Writer, plan partition.Plan) {
	fmt.Fprintln(w, "Point\tClient\tTransfer\tServer\tTotal")
	for _, c := range plan.Candidates {
		fmt.Fprintf(w, "%s\t%.2fs\t%.2fs\t%.2fs\t%.2fs\n",
			c.Point.Label, c.ClientTime.Seconds(), c.TransferTime.Seconds(),
			c.ServerTime.Seconds(), c.Total.Seconds())
	}
}
