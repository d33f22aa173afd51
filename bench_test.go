package websnap_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (regenerating its rows and reporting the headline quantities
// as custom metrics), plus real-path micro-benchmarks of the mechanisms
// the paper's numbers are made of (snapshot capture/encode/restore, DNN
// forward execution, and the full offload round trip).
//
// Simulated experiment metrics are reported in milliseconds as
// "<quantity>_sim_ms"; they are deterministic and do not depend on the
// machine running the benchmark (see DESIGN.md §1 on hardware
// substitution).

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"websnap"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/sim"
	"websnap/internal/snapshot"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// BenchmarkFig6ExecutionTime regenerates Fig 6 (execution time of inference
// in three web apps) and reports each configuration's simulated seconds.
func BenchmarkFig6ExecutionTime(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			var row sim.Fig6Row
			for i := 0; i < b.N; i++ {
				sc, err := sim.NewScenario(name)
				if err != nil {
					b.Fatal(err)
				}
				row, err = sc.Fig6Row()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Client.Seconds()*1000, "client_sim_ms")
			b.ReportMetric(row.Server.Seconds()*1000, "server_sim_ms")
			b.ReportMetric(row.BeforeACK.Seconds()*1000, "beforeACK_sim_ms")
			b.ReportMetric(row.AfterACK.Seconds()*1000, "afterACK_sim_ms")
			b.ReportMetric(row.Partial.Seconds()*1000, "partial_sim_ms")
		})
	}
}

// BenchmarkFig7Breakdown regenerates Fig 7 (breakdown of the inference
// time) and reports the snapshot-related overhead share of the after-ACK
// configuration — the paper's "negligible" claim, quantified.
func BenchmarkFig7Breakdown(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			var bd sim.Breakdown
			for i := 0; i < b.N; i++ {
				sc, err := sim.NewScenario(name)
				if err != nil {
					b.Fatal(err)
				}
				bd, err = sc.OffloadAfterACK()
				if err != nil {
					b.Fatal(err)
				}
			}
			snapOvh := bd.Get(sim.PhaseSnapshotCaptureC) + bd.Get(sim.PhaseSnapshotRestoreS) +
				bd.Get(sim.PhaseSnapshotCaptureS) + bd.Get(sim.PhaseSnapshotRestoreC)
			b.ReportMetric(snapOvh.Seconds()*1000, "snapshot_ovh_sim_ms")
			b.ReportMetric(bd.Get(sim.PhaseServerExec).Seconds()*1000, "server_exec_sim_ms")
			b.ReportMetric(bd.Total().Seconds()*1000, "total_sim_ms")
		})
	}
}

// BenchmarkFig8PartialInference regenerates Fig 8 (inference time with
// partial inference at various offloading points), reporting the 1st_conv
// vs 1st_pool comparison that drives the paper's conclusion.
func BenchmarkFig8PartialInference(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			var conv1, pool1 float64
			for i := 0; i < b.N; i++ {
				rows, err := sim.Fig8()
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Model != name {
						continue
					}
					for _, c := range r.Candidates {
						switch c.Point.Label {
						case "1st_conv":
							conv1 = c.Total.Seconds() * 1000
						case "1st_pool":
							pool1 = c.Total.Seconds() * 1000
						}
					}
				}
			}
			b.ReportMetric(conv1, "at_1st_conv_sim_ms")
			b.ReportMetric(pool1, "at_1st_pool_sim_ms")
		})
	}
}

// BenchmarkTable1Installation regenerates Table 1 (overhead of VM-based
// installation vs snapshot migration).
func BenchmarkTable1Installation(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			var row sim.Table1Row
			for i := 0; i < b.N; i++ {
				rows, err := sim.Table1()
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Model == name {
						row = r
					}
				}
			}
			b.ReportMetric(row.SynthesisTime.Seconds()*1000, "vm_synthesis_sim_ms")
			b.ReportMetric(float64(row.OverlayBytes)/(1<<20), "overlay_MB")
			b.ReportMetric(row.MigrationWithPre.Seconds()*1000, "migration_presend_sim_ms")
			b.ReportMetric(row.MigrationWithoutPre.Seconds()*1000, "migration_nopresend_sim_ms")
		})
	}
}

// BenchmarkFig1FeatureDims regenerates the Fig 1 architecture table and
// reports GoogLeNet's stem feature size (the 56x56x64 the paper draws).
func BenchmarkFig1FeatureDims(b *testing.B) {
	var pool1KB int64
	for i := 0; i < b.N; i++ {
		rows, err := sim.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Layer == "pool1" {
				pool1KB = r.FeatureKB
			}
		}
	}
	b.ReportMetric(float64(pool1KB), "pool1_feature_KB")
}

// BenchmarkFeatureDataSize regenerates the §IV.B feature-size measurement
// (14.7 MB at 1st_conv vs 2.9 MB at 1st_pool in the paper's encoding).
func BenchmarkFeatureDataSize(b *testing.B) {
	var conv1, pool1 float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.FeatureSizes()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Model != models.GoogLeNet {
				continue
			}
			switch r.Label {
			case "1st_conv":
				conv1 = float64(r.TextBytes) / (1 << 20)
			case "1st_pool":
				pool1 = float64(r.TextBytes) / (1 << 20)
			}
		}
	}
	b.ReportMetric(conv1, "at_1st_conv_MB")
	b.ReportMetric(pool1, "at_1st_pool_MB")
}

// --- Real-path micro-benchmarks -----------------------------------------

// benchApp builds a loaded tiny-model app for snapshot benchmarks.
func benchApp(b *testing.B) *webapp.App {
	b.Helper()
	model, err := models.BuildTinyNet("tinynet", 3)
	if err != nil {
		b.Fatal(err)
	}
	app, err := mlapp.NewFullApp("bench", "tinynet", model, []string{"cat", "dog", "bird"})
	if err != nil {
		b.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkSnapshotCapture measures real snapshot capture of a live app.
func BenchmarkSnapshotCapture(b *testing.B) {
	app := benchApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Capture(app, snapshot.Options{
			DefaultModelPolicy: snapshot.ModelSpecOnly,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode measures textual encoding of a captured snapshot.
func BenchmarkSnapshotEncode(b *testing.B) {
	app := benchApp(b)
	snap, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelSpecOnly})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		data, err := snap.Encode()
		if err != nil {
			b.Fatal(err)
		}
		n = len(data)
	}
	b.ReportMetric(float64(n), "snapshot_bytes")
}

// BenchmarkSnapshotDecodeRestore measures decode + restore + resume.
func BenchmarkSnapshotDecodeRestore(b *testing.B) {
	app := benchApp(b)
	model, _ := app.Model("tinynet")
	snap, err := snapshot.Capture(app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly,
		PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
	})
	if err != nil {
		b.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		b.Fatal(err)
	}
	resolver := snapshot.ResolverFunc(func(string) (*websnap.Network, bool) { return model, true })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := snapshot.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		restored, err := snapshot.Restore(got, app.Registry(), snapshot.RestoreOptions{Models: resolver})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := restored.Run(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForward measures real forward execution of each benchmark DNN —
// the computation the paper offloads. Heavy: run with -benchtime=1x for a
// quick pass.
func BenchmarkForward(b *testing.B) {
	for _, name := range append([]string{"tinynet"}, models.Names()...) {
		b.Run(name, func(b *testing.B) {
			var (
				net *websnap.Network
				err error
			)
			if name == "tinynet" {
				net, err = models.BuildTinyNet("tinynet", 3)
			} else {
				net, err = models.Build(name)
			}
			if err != nil {
				b.Fatal(err)
			}
			in := tensor.MustNew(net.InputShape()...)
			for i := range in.Data() {
				in.Data()[i] = float32(i%255) / 255
			}
			fl, err := net.TotalFLOPs()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(fl) // throughput column ≈ FLOP/s
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Forward(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOffloadRoundTrip measures the real end-to-end offload cycle
// (capture, ship over loopback TCP, execute at the server, return, apply)
// with the tiny model.
func BenchmarkOffloadRoundTrip(b *testing.B) {
	srv, err := websnap.NewEdgeServer(nil)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	model, err := models.BuildTinyNet("tinynet", 3)
	if err != nil {
		b.Fatal(err)
	}
	conn, err := websnap.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	session, err := websnap.NewSession(websnap.SessionConfig{
		AppID: "bench-rt", ModelName: "tinynet", Model: model,
		Labels: []string{"cat", "dog", "bird"},
		Mode:   websnap.ModeFull, Conn: conn, PreSend: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := session.WaitForModelUpload(); err != nil {
		b.Fatal(err)
	}
	img := mlapp.SyntheticImage(3*16*16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := session.Classify(img); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := session.Stats(); st.Offloads < b.N {
		b.Fatalf("only %d offloads for %d iterations", st.Offloads, b.N)
	}
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationCompression runs the paper's own offload — AgeNet split at
// 1st_pool — over loopback and over the 30 Mbit/s link, the same session
// configuration both times: the wire form is the offloader's choice from the
// uplink it measures, so the link is the only thing that differs. It reports
// the request's size on the wire, the share of requests that travelled packed
// and the uplink estimate they were chosen from. (The shaped leg's set-up is
// the 45 MB pre-send at 30 Mbit/s, ≈ 13 s.)
func BenchmarkAblationCompression(b *testing.B) {
	model, err := models.Build(models.AgeNet)
	if err != nil {
		b.Fatal(err)
	}
	out, err := model.OutputShape()
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]string, out[len(out)-1])
	for i := range labels {
		labels[i] = fmt.Sprintf("age_%d", i)
	}
	volume := tensor.Volume(model.InputShape())
	for _, link := range []struct {
		name    string
		profile netem.Profile
	}{{"loopback", netem.Unlimited}, {"wifi30", netem.WiFi30Mbps}} {
		b.Run(link.name, func(b *testing.B) {
			srv, err := websnap.NewEdgeServer(nil)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			defer func() {
				srv.Close()
				<-done
			}()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			conn := websnap.NewConn(netem.Shape(raw, link.profile))
			defer conn.Close()
			session, err := websnap.NewSession(websnap.SessionConfig{
				AppID: "bench-comp", ModelName: models.AgeNet, Model: model, Labels: labels,
				Mode: websnap.ModePartial, SplitLabel: "1st_pool", Conn: conn, PreSend: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := session.WaitForModelUpload(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := session.Classify(mlapp.SyntheticImage(volume, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			st := session.Stats()
			b.ReportMetric(float64(st.LastSnapshotBytes), "wire_bytes")
			b.ReportMetric(float64(st.PackedOffloads)/float64(st.Offloads), "packed_share")
			b.ReportMetric(st.UplinkBytesPerSec/1e6, "uplink_MB/s")
		})
	}
}

// BenchmarkAblationPreSend quantifies the pre-sending optimization
// (§III.B.1) across bandwidths: first-offload latency with and without it.
func BenchmarkAblationPreSend(b *testing.B) {
	for _, mbps := range []float64{5, 30, 100} {
		b.Run(fmt.Sprintf("%.0fMbps", mbps), func(b *testing.B) {
			var before, after float64
			for i := 0; i < b.N; i++ {
				pts, err := sim.BandwidthSweep(models.GenderNet, []float64{mbps})
				if err != nil {
					b.Fatal(err)
				}
				before = pts[0].BeforeACK.Seconds() * 1000
				after = pts[0].AfterACK.Seconds() * 1000
			}
			b.ReportMetric(before, "beforeACK_sim_ms")
			b.ReportMetric(after, "afterACK_sim_ms")
		})
	}
}

// BenchmarkAblationPartitionVsBandwidth reports how the privacy-constrained
// partition decision responds to the network — the "runtime network status"
// input of §III.B.2.
func BenchmarkAblationPartitionVsBandwidth(b *testing.B) {
	for _, mbps := range []float64{1, 30, 1000} {
		b.Run(fmt.Sprintf("%.0fMbps", mbps), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				pts, err := sim.BandwidthSweep(models.GoogLeNet, []float64{mbps})
				if err != nil {
					b.Fatal(err)
				}
				total = pts[0].BestTotal.Seconds() * 1000
			}
			b.ReportMetric(total, "best_partial_sim_ms")
		})
	}
}

// BenchmarkAblationModelPolicy measures the real encoded sizes §III.B.1
// trades: the model's one pre-send (its spec plus binary weights), then
// snapshots that name it spec-only or omit it.
func BenchmarkAblationModelPolicy(b *testing.B) {
	app := benchApp(b)
	b.Run("pre-send", func(b *testing.B) {
		model, _ := app.Model("tinynet")
		var n int
		for i := 0; i < b.N; i++ {
			spec, err := nn.EncodeSpec(model)
			if err != nil {
				b.Fatal(err)
			}
			var weights bytes.Buffer
			if err := model.EncodeWeights(&weights); err != nil {
				b.Fatal(err)
			}
			n = len(spec) + weights.Len()
		}
		b.ReportMetric(float64(n), "bytes")
	})
	for _, tc := range []struct {
		name   string
		policy snapshot.ModelPolicy
	}{
		{"spec-only", snapshot.ModelSpecOnly},
		{"omitted", snapshot.ModelOmit},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				snap, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: tc.policy})
				if err != nil {
					b.Fatal(err)
				}
				wire, err := snap.Encode()
				if err != nil {
					b.Fatal(err)
				}
				n = len(wire)
			}
			b.ReportMetric(float64(n), "snapshot_bytes")
		})
	}
}

// BenchmarkModelPreSend measures shipping a real ~44 MB model to the edge
// server over loopback (the paper's pre-sending step, unshaped).
func BenchmarkModelPreSend(b *testing.B) {
	srv, err := websnap.NewEdgeServer(nil)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	model, err := models.Build(models.GenderNet)
	if err != nil {
		b.Fatal(err)
	}
	conn, err := websnap.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.SetBytes(model.ModelBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.PreSendModel(fmt.Sprintf("bench-%d", i), "gendernet", model, ""); err != nil {
			b.Fatal(err)
		}
	}
}
