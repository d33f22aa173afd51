package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"websnap/internal/core"
	"websnap/internal/costmodel"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/protocol"
	"websnap/internal/sched"
	"websnap/internal/snapshot"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// maxHandlerSteps mirrors the edge server's bound on one offloaded burst.
const maxHandlerSteps = 1000

// tracedStats is what the traced pass counted beside its spans.
type tracedStats struct {
	failed                    int // wrong answers, or a replay that disagreed with the server
	requestBytes, resultBytes []float64
	headerBytes               int // what protocol adds to a request body
}

// tracedPass drives e.w.traced offloads by hand on the first session's app
// and connection, in the order client.Offloader.Step and the edge server do,
// with a span around every call into a layer's public API. The server half
// is replayed in-process on the exact request bytes, because spans inside
// edge are a later change.
func (e *env) tracedPass(t *tracer) (tracedStats, error) {
	var st tracedStats
	sess := e.sess[0]
	app := sess.App()
	catalog, err := core.DefaultCatalog()
	if err != nil {
		return st, err
	}
	policies := map[string]snapshot.ModelPolicy{}
	if e.w.mode == core.ModePartial {
		policies[e.w.model+mlapp.FrontSuffix] = snapshot.ModelOmit
	}
	for i := 0; i < e.w.traced; i++ {
		idx := i % poolSize
		img := e.images[idx]
		t.req = i + 1
		var encoded, result []byte
		err := t.do("request", func() error {
			if err := t.do("webapp.load_dispatch", func() error {
				if err := mlapp.LoadImage(app, img); err != nil {
					return err
				}
				app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
				return nil
			}); err != nil {
				return err
			}
			if e.w.mode == core.ModePartial {
				// front() runs locally and dispatches front_complete.
				if err := t.do("webapp.run_front", app.Step); err != nil {
					return err
				}
			}
			ev, ok := app.PopEvent()
			if !ok {
				return errors.New("no event to offload")
			}
			var snap *snapshot.Snapshot
			if err := t.do("snapshot.capture", func() (err error) {
				snap, err = snapshot.Capture(app, snapshot.Options{
					DefaultModelPolicy: snapshot.ModelSpecOnly,
					ModelPolicies:      policies,
					PendingEvent:       &ev,
				})
				return err
			}); err != nil {
				return err
			}
			if err := t.do("snapshot.encode", func() (err error) {
				encoded, err = snap.Encode()
				return err
			}); err != nil {
				return err
			}
			if err := t.do("client.offload", func() (err error) {
				result, _, err = e.conn.OffloadSnapshot(app.ID(), encoded, false)
				return err
			}); err != nil {
				return err
			}
			return t.do("snapshot.result_decode_apply", func() error {
				res, err := snapshot.Decode(result)
				if err != nil {
					return err
				}
				return res.ApplyTo(app, snapshot.RestoreOptions{})
			})
		})
		if err != nil {
			return st, fmt.Errorf("traced request %d: %w", i, err)
		}
		st.requestBytes = append(st.requestBytes, float64(len(encoded)))
		st.resultBytes = append(st.resultBytes, float64(len(result)))
		if !e.oracle[idx].matches(mlapp.Result(app), scoresOf(sess)) {
			st.failed++
		}
		replayed, err := e.replay(t, catalog, encoded)
		if err != nil {
			return st, fmt.Errorf("replay %d: %w", i, err)
		}
		if !bytes.Equal(replayed, result) {
			// The replay stands in for the server's spans, so it must
			// produce the server's bytes.
			st.failed++
		}
		if st.headerBytes, err = protocolFrame(t, encoded); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replay does the edge server's work for one request (decode, restore, run
// the handler, capture and encode the result) against the live server's
// model store and returns the result bytes.
func (e *env) replay(t *tracer, catalog *webapp.Catalog, encoded []byte) ([]byte, error) {
	var body []byte
	err := t.do("replay", func() error {
		var snap *snapshot.Snapshot
		if err := t.do("snapshot.decode", func() (err error) {
			snap, err = snapshot.Decode(encoded)
			return err
		}); err != nil {
			return err
		}
		var app *webapp.App
		if err := t.do("snapshot.restore", func() error {
			registry, ok := catalog.Lookup(snap.CodeHash)
			if !ok {
				return fmt.Errorf("unknown app code %q", snap.CodeHash)
			}
			store := e.srv.Store()
			var err error
			app, err = snapshot.Restore(snap, registry, snapshot.RestoreOptions{Models: store.Resolver(snap.AppID)})
			if err != nil {
				return err
			}
			for _, name := range store.Names(snap.AppID) {
				if _, loaded := app.Model(name); !loaded {
					if m, ok := store.Get(snap.AppID, name); ok {
						app.LoadModel(name, m)
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := t.do("webapp.run_handler", func() error {
			_, err := app.Run(maxHandlerSteps)
			return err
		}); err != nil {
			return err
		}
		return t.do("snapshot.result_capture_encode", func() error {
			res, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelOmit})
			if err != nil {
				return err
			}
			// The server encodes the state twice: once model-free to
			// charge its session store, once for the response.
			bare := *res
			bare.Models = nil
			if _, err := bare.Encode(); err != nil {
				return err
			}
			body, err = res.Encode()
			return err
		})
	})
	return body, err
}

// protocolFrame sends one request-sized frame through protocol.Write and
// protocol.Read on an in-memory buffer, checksum on, and returns how many
// bytes framing added to the body.
func protocolFrame(t *tracer, body []byte) (int, error) {
	var buf bytes.Buffer
	if err := t.do("protocol.write", func() error {
		msg, err := protocol.Encode(protocol.MsgSnapshot, protocol.SnapshotHeader{
			AppID: "frame", Seq: 1, Encoding: protocol.EncodingRaw,
			Hints: protocol.HintCRCV1, TraceID: "0123456789abcdef",
			BodyCRC: protocol.BodyChecksum(body),
		}, body)
		if err != nil {
			return err
		}
		return protocol.Write(&buf, msg)
	}); err != nil {
		return 0, err
	}
	added := buf.Len() - len(body)
	return added, t.do("protocol.read", func() error {
		msg, err := protocol.Read(&buf)
		if err != nil {
			return err
		}
		var hdr protocol.SnapshotHeader
		if err := protocol.DecodeHeader(msg, &hdr); err != nil {
			return err
		}
		return protocol.VerifyBody(msg.Body, hdr.BodyCRC)
	})
}

// netemTransfer writes n bytes through a shaped loopback pair and waits
// until the peer has read them all, reps times under "netem.transfer" spans.
func netemTransfer(t *tracer, link netem.Profile, n, reps int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	got := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		for r := 0; r < reps; r++ {
			_, err := io.CopyN(io.Discard, c, int64(n))
			got <- err
			if err != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer raw.Close()
	shaped := netem.Shape(raw, link)
	body := make([]byte, n)
	for r := 0; r < reps; r++ {
		if err := t.do("netem.transfer", func() error {
			if _, err := shaped.Write(body); err != nil {
				return err
			}
			return <-got
		}); err != nil {
			return err
		}
	}
	return nil
}

// schedOverheadUS is the mean Submit+Wait round trip of a stand-alone
// scheduler with a no-op executor.
func schedOverheadUS() (float64, error) {
	const tasks = 10000
	s, err := sched.New(sched.Config{Workers: 1}, func(batch []*sched.Task) []sched.Result {
		return make([]sched.Result, len(batch))
	})
	if err != nil {
		return 0, err
	}
	defer s.Close()
	t0 := time.Now()
	for i := 0; i < tasks; i++ {
		task := sched.NewTask("k", nil)
		if err := s.Submit(task); err != nil {
			return 0, err
		}
		if _, err := task.Wait(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / tasks, nil
}

// layerTypes are the layer kinds nn.type.* metrics are reported for.
var layerTypes = []nn.LayerType{nn.TypeInput, nn.TypeConv, nn.TypePool, nn.TypeFC, nn.TypeReLU,
	nn.TypeLRN, nn.TypeDropout, nn.TypeSoftmax, nn.TypeInception}

// forwardReps is how many passes forwardTimes makes.
const forwardReps = 7

// forwardTimes times the whole-network plan and every layer as its own range
// plan on the real upstream activation. The passes are interleaved (whole
// network, then layer by layer) so that both see the same host conditions;
// it returns the whole-network median and the per-layer medians summed by
// layer type, in ms.
func forwardTimes(m *nn.Network, prec nn.Precision, in *tensor.Tensor) (float64, map[nn.LayerType]float64, error) {
	whole, err := m.PlanPrec(prec, in.Shape()...)
	if err != nil {
		return 0, nil, err
	}
	layers := m.Layers()
	plans := make([]*nn.ExecPlan, len(layers))
	wholeMS := make([]float64, forwardReps)
	layerMS := make([][]float64, len(layers))
	for r := range wholeMS {
		t0 := time.Now()
		if _, err := whole.Forward(in); err != nil {
			return 0, nil, err
		}
		wholeMS[r] = ms(time.Since(t0))
		act := in
		for i := range layers {
			if plans[i] == nil {
				if plans[i], err = m.PlanRangePrec(prec, i, i+1, act.Shape()...); err != nil {
					return 0, nil, err
				}
			}
			t0 := time.Now()
			out, err := plans[i].Forward(act)
			if err != nil {
				return 0, nil, err
			}
			layerMS[i] = append(layerMS[i], ms(time.Since(t0)))
			act = out
		}
	}
	byType := map[nn.LayerType]float64{}
	for i, l := range layers {
		byType[l.Type()] += median(layerMS[i])
	}
	return median(wholeMS), byType, nil
}

// timeOp returns the median wall time of op in seconds, over at least five
// runs and 100 ms.
func timeOp(op func()) float64 {
	op() // warm
	var times []float64
	for start := time.Now(); len(times) < 5 || time.Since(start) < 100*time.Millisecond; {
		t0 := time.Now()
		op()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}

func fill(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(i%13)/13 - 0.5
	}
	return s
}

// gemmGflops times tensor.Gemm at one shape (the shapes of the repository's
// own Go benchmarks).
func gemmGflops(m, k, n int) float64 {
	a, b, bias, dst := fill(m*k), fill(k*n), fill(m), make([]float32, m*n)
	secs := timeOp(func() { tensor.Gemm(dst, a, b, bias, m, k, n) })
	return 2 * float64(m) * float64(k) * float64(n) / secs / 1e9
}

// gemmInt8Gops times the packed int8 GEMM at the large shape.
func gemmInt8Gops(m, k, n int) float64 {
	a, b := make([]int8, m*k), make([]int8, k*n)
	for i := range a {
		a[i] = int8(i%17 - 8)
	}
	for i := range b {
		b[i] = int8(i%19 - 9)
	}
	pa := tensor.PackAI8(a, m, k, k)
	dst := make([]int32, m*n)
	secs := timeOp(func() { tensor.GemmPackedI8(dst, pa, b, n, n) })
	return 2 * float64(m) * float64(k) * float64(n) / secs / 1e9
}

// analyzePartition runs the partition estimator with the configuration
// core.Session uses by default and returns the layer index it would split at.
func analyzePartition(t *tracer, m *nn.Network, prec nn.Precision) (int, error) {
	var plan partition.Plan
	if err := t.do("partition.analyze", func() (err error) {
		plan, err = partition.Analyze(m, partition.Config{
			Client:             costmodel.ClientOdroid,
			Server:             costmodel.ServerX86,
			Network:            netem.WiFi30Mbps,
			StateOverheadBytes: 64 << 10,
			ResultBytes:        4 << 10,
			Precision:          prec,
		})
		return err
	}); err != nil {
		return 0, err
	}
	best, err := plan.Choose(true)
	if err != nil {
		return 0, err
	}
	return best.Point.Index, nil
}

// presendBytes is the wire size of the models a set-up pre-sends: descriptor
// plus weight text, per client.
func (e *env) presendBytes() (int64, error) {
	m := e.net
	if e.w.mode == core.ModePartial {
		rear, ok := e.sess[0].App().Model(e.w.model + mlapp.RearSuffix)
		if !ok {
			return 0, errors.New("rear model missing")
		}
		m = rear
	}
	spec, err := nn.EncodeSpec(m)
	if err != nil {
		return 0, err
	}
	var weights byteCounter
	if err := m.EncodeWeights(&weights); err != nil {
		return 0, err
	}
	return int64(len(spec)) + int64(weights), nil
}

// byteCounter counts what is written to it, so 45 MB of weight text need
// not be held to be measured.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// layerMetrics makes the traced pass and the stand-alone layer measurements
// and fills the per-layer table. It returns how many traced answers were
// wrong.
func (e *env) layerMetrics(set *metricSet, win window, raw rawTimes, cfg runConfig, host hostInfo) (int, error) {
	w := e.w
	// Counters first: they describe the untraced window.
	m := e.srv.Metrics()
	ss := e.srv.SchedStats()
	cs := e.clientStats()
	n := float64(len(win.latMS))
	set.set("core.classify_p50_ms", raw.P50MS)
	set.set("core.throughput_rps", raw.RPS)
	set.set("core.cpu_ms_per_req", raw.CPUMSPerReq)
	set.set("host.ref_ms", raw.RefMS)
	set.set("host.ref_spread_frac", raw.RefSpread)
	set.set("core.classify_p90_ms", quantile(win.latMS, 0.90))
	p99 := 0.0
	if len(win.latMS) >= 1000 { // ten samples beyond it
		p99 = quantile(win.latMS, 0.99)
	}
	set.set("core.classify_p99_ms", p99)
	set.set("core.new_session_ms", ms(e.newSession)/float64(w.clients))
	set.set("client.presend_ms", ms(e.presend)/float64(w.clients))
	set.set("client.local_fallbacks", float64(cs.LocalFallbacks+cs.LoadSheds))
	set.set("client.redials", float64(cs.Redials))
	set.set("edge.snapshots_executed", float64(m.SnapshotsExecuted))
	set.set("edge.errors", float64(m.Errors))
	set.set("edge.mux_requests", float64(m.MuxRequests))
	set.set("edge.store_bytes", float64(m.StoreBytes))
	set.set("sched.submitted", float64(ss.Submitted))
	set.set("sched.rejected", float64(ss.Rejected))
	set.set("sched.mean_batch_size", ratio(float64(ss.Executed), float64(ss.Batches)))
	set.set("tensor.pool_gets_per_req", ratio(float64(win.poolGets), n))
	set.set("runtime.live_heap_mb", float64(win.liveHeapBytes)/1e6)

	t := newTracer()
	st, err := e.tracedPass(t)
	if err != nil {
		return st.failed, err
	}
	set.set("tensor.pool_outstanding", float64(tensor.ReadPoolStats().Outstanding()))
	for _, name := range []string{"webapp.load_dispatch", "webapp.run_handler", "webapp.run_front",
		"snapshot.capture", "snapshot.encode", "snapshot.decode", "snapshot.restore",
		"snapshot.result_capture_encode", "snapshot.result_decode_apply",
		"protocol.write", "protocol.read", "client.offload"} {
		set.set(name+"_ms", t.medianMS(name))
	}
	set.set("snapshot.decode_over_encode", ratio(t.medianMS("snapshot.decode"), t.medianMS("snapshot.encode")))
	set.set("snapshot.request_bytes", median(st.requestBytes))
	set.set("snapshot.result_bytes", median(st.resultBytes))
	set.set("protocol.header_bytes", float64(st.headerBytes))

	// What the live server added to the replayed work: dispatch, framing,
	// sockets, mux, queueing. Wire time is analytic (zero on loopback).
	offload, replay := t.durations("client.offload"), t.durations("replay")
	residual := make([]float64, len(offload))
	for i := range offload {
		residual[i] = offload[i] - replay[i] - ms(w.link.TransferTime(int64(st.requestBytes[i])))
	}
	set.set("edge.residual_ms", median(residual))
	set.set("trace.overhead_frac", ratio(t.medianMS("request")-raw.P50MS, raw.P50MS))
	set.set("trace.coverage_frac", t.coverage("request"))

	if w.link != netem.Unlimited {
		size := int64(median(st.requestBytes))
		if err := netemTransfer(t, w.link, int(size), 3); err != nil {
			return st.failed, err
		}
		got, want := t.medianMS("netem.transfer"), ms(w.link.TransferTime(size))
		set.set("netem.transfer_ms", got)
		set.set("netem.pacing_error_frac", ratio(got-want, want))
	} else {
		set.set("netem.transfer_ms", 0)
		set.set("netem.pacing_error_frac", 0)
	}

	sent, err := e.presendBytes()
	if err != nil {
		return st.failed, err
	}
	set.set("client.presend_bytes", float64(sent))

	overhead, err := schedOverheadUS()
	if err != nil {
		return st.failed, err
	}
	set.set("sched.task_overhead_us", overhead)

	flops, err := e.net.TotalFLOPs()
	if err != nil {
		return st.failed, err
	}
	// Plans are cached per network, so compile time needs a fresh one.
	fresh, _, err := buildModel(w.model)
	if err != nil {
		return st.failed, err
	}
	if err := t.do("nn.plan_compile", func() error {
		_, err := fresh.PlanPrec(w.quality, fresh.InputShape()...)
		return err
	}); err != nil {
		return st.failed, err
	}
	set.set("nn.plan_compile_ms", t.medianMS("nn.plan_compile"))
	in, err := tensor.FromSlice([]float32(e.images[0]), e.net.InputShape()...)
	if err != nil {
		return st.failed, err
	}
	forward, byType, err := forwardTimes(e.net, w.quality, in)
	if err != nil {
		return st.failed, err
	}
	set.set("nn.forward_ms", forward)
	set.set("nn.gflops", ratio(float64(flops)/1e9, forward/1e3))
	var total float64
	for _, v := range byType {
		total += v
	}
	for _, lt := range layerTypes {
		set.set("nn.type."+string(lt)+"_ms", byType[lt])
		set.set("nn.type."+string(lt)+"_share", ratio(byType[lt], total))
	}

	set.set("tensor.gemm_large_gflops", gemmGflops(256, 512, 512))
	set.set("tensor.gemm_conv_gflops", gemmGflops(128, 256, 196))
	set.set("tensor.gemv_gflops", gemmGflops(1024, 1024, 1))
	set.set("tensor.gemm_int8_gops", gemmInt8Gops(256, 512, 512))

	best, err := analyzePartition(t, e.net, w.quality)
	if err != nil {
		return st.failed, err
	}
	set.set("partition.analyze_ms", t.medianMS("partition.analyze"))
	set.set("partition.best_index", float64(best))

	return st.failed, t.write(cfg.outDir, w.name, cfg.seed, host)
}
