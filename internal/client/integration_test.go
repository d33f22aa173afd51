package client

import (
	"net"
	"slices"
	"strings"
	"testing"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/testutil"
	"websnap/internal/trace"
	"websnap/internal/vmsynth"
	"websnap/internal/webapp"
)

// startEdge runs a real edge server for in-package integration tests.
func startEdge(t *testing.T, cfg edge.Config) string {
	t.Helper()
	if cfg.Catalog == nil {
		cat := webapp.NewCatalog()
		if err := cat.Add(mlapp.FullRegistry()); err != nil {
			t.Fatal(err)
		}
		if err := cat.Add(mlapp.PartialRegistry()); err != nil {
			t.Fatal(err)
		}
		cfg.Catalog = cat
	}
	srv, err := edge.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func dialEdge(t *testing.T, addr string) *Conn {
	t.Helper()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func newOffloadedApp(t *testing.T, conn *Conn, opts Options) (*Offloader, *webapp.App) {
	t.Helper()
	model := tinyModel(t)
	app, err := mlapp.NewFullApp("client-int", "tiny", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.OffloadEventTypes) == 0 {
		opts.OffloadEventTypes = []string{mlapp.EventClick}
	}
	off, err := NewOffloader(app, conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	return off, app
}

func classifyOnce(t *testing.T, off *Offloader, app *webapp.App, seed uint64) string {
	t.Helper()
	return classifyImage(t, off, app, 3*16*16, seed)
}

func classifyImage(t *testing.T, off *Offloader, app *webapp.App, volume int, seed uint64) string {
	t.Helper()
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(volume, seed)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatal(err)
	}
	return mlapp.Result(app)
}

func TestOffloadEndToEndInPackage(t *testing.T) {
	testutil.LeakCheck(t)
	addr := startEdge(t, edge.Config{Installed: true})
	conn := dialEdge(t, addr)
	off, app := newOffloadedApp(t, conn, Options{
		Models: []ModelToSend{{Name: "tiny", Net: tinyModel(t)}},
	})
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	if got := classifyOnce(t, off, app, 1); got == "" {
		t.Fatal("no result")
	}
	st := off.Stats()
	if st.Offloads != 1 || st.LastSnapshotBytes == 0 || st.LastResultBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.LastTiming.Total() <= 0 {
		t.Error("timing not recorded")
	}
}

func TestRetargetInPackage(t *testing.T) {
	addrA := startEdge(t, edge.Config{Installed: true})
	addrB := startEdge(t, edge.Config{Installed: true})
	connA := dialEdge(t, addrA)
	off, app := newOffloadedApp(t, connA, Options{
		Models: []ModelToSend{{Name: "tiny", Net: tinyModel(t)}},
	})
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	first := classifyOnce(t, off, app, 3)

	connB := dialEdge(t, addrB)
	if err := off.Retarget(connB); err != nil {
		t.Fatal(err)
	}
	if off.ModelAcked("tiny") {
		t.Error("retarget must clear ACK state")
	}
	if err := off.WaitForAcks(); err != nil {
		t.Fatalf("re-pre-send after retarget: %v", err)
	}
	if !off.ModelAcked("tiny") {
		t.Error("model should be re-acked at the new server")
	}
	if got := classifyOnce(t, off, app, 3); got != first {
		t.Errorf("result after retarget = %q, want %q", got, first)
	}
	if err := off.Retarget(nil); err == nil {
		t.Error("retarget to nil should fail")
	}
}

func TestInstallOverlayInPackage(t *testing.T) {
	syn := vmsynth.NewSynthesizer(vmsynth.BaseImage{Name: "base", Bytes: 1 << 20})
	addr := startEdge(t, edge.Config{Installed: false, Synthesizer: syn})
	conn := dialEdge(t, addr)
	data := []byte(strings.Repeat("system-bits-", 2048))
	overlay, err := vmsynth.BuildOverlay(vmsynth.Component{
		Name: "sys", RawBytes: int64(len(data)), CompressRatio: 0.4, Data: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	synthTime, err := conn.InstallOverlay("base", overlay.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	if synthTime < 0 {
		t.Errorf("synthesis time = %v", synthTime)
	}
	// Installing again on an installed server is a cheap no-op.
	if _, err := conn.InstallOverlay("base", overlay.Compressed); err != nil {
		t.Errorf("idempotent install failed: %v", err)
	}
}

// wideSide is the input edge of wideModel: a 3×96×96 image is 147 KB of
// snapshot text and the model 110 KB of weights, both large enough for their
// transfer time to say something about the link.
const wideSide = 96

func wideModel(t *testing.T) *nn.Network {
	t.Helper()
	var layers []nn.Layer
	add := func(l nn.Layer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}
	add(nn.NewInput("data", 3, wideSide, wideSide))
	add(nn.NewConv("conv", 3, 4, 3, 1, 1))
	add(nn.NewReLU("relu"), nil)
	add(nn.NewPool("pool", nn.MaxPool, 2, 2, 0))
	add(nn.NewFC("fc", 4*wideSide/2*wideSide/2, 3))
	add(nn.NewSoftmax("prob"), nil)
	m, err := nn.NewNetwork("wide", layers...)
	if err != nil {
		t.Fatal(err)
	}
	m.InitWeights(7)
	return m
}

// newWideApp is a full-offload app over wideModel with the model pre-sent and
// acknowledged.
func newWideApp(t *testing.T, conn *Conn, opts Options) (*Offloader, *webapp.App) {
	t.Helper()
	model := wideModel(t)
	app, err := mlapp.NewFullApp("wide-app", "wide", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	opts.OffloadEventTypes = []string{mlapp.EventClick}
	opts.Models = []ModelToSend{{Name: "wide", Net: model}}
	off, err := NewOffloader(app, conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	return off, app
}

// TestCompressedOffload: nobody sets the wire form. Over loopback the
// offloader measures a fast link and every body travels as its text; over the
// paper's 30 Mbit/s link the pre-send already reads slow, so the first request
// and every one after it travels packed, the results are the same labels, the
// body is under three quarters of its text (an 8-bit synthetic image: 256
// distinct floats), and the codec's time shows as the compress stage.
func TestCompressedOffload(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	const offloads = 3
	run := func(link netem.Profile) (results []string, st Stats) {
		conn, err := DialWrapped(addr, func(c net.Conn) net.Conn { return netem.Shape(c, link) })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		off, app := newWideApp(t, conn, Options{})
		for i := 0; i < offloads; i++ {
			results = append(results, classifyImage(t, off, app, 3*wideSide*wideSide, uint64(i+1)))
		}
		return results, off.Stats()
	}
	fastRes, fast := run(netem.Unlimited)
	slowRes, slow := run(netem.WiFi30Mbps)
	t.Logf("loopback: %.0f MB/s, %d B/request; 30 Mbit/s: %.2f MB/s, %d B/request",
		fast.UplinkBytesPerSec/1e6, fast.LastSnapshotBytes, slow.UplinkBytesPerSec/1e6, slow.LastSnapshotBytes)
	if !slices.Equal(fastRes, slowRes) {
		t.Errorf("results over the slow link %q != over loopback %q", slowRes, fastRes)
	}
	if fast.PackedOffloads != 0 {
		t.Errorf("%d of %d loopback requests travelled packed (estimate %.0f B/s)", fast.PackedOffloads, offloads, fast.UplinkBytesPerSec)
	}
	if _, ok := fast.LastTrace.Get(trace.StageCompress); ok {
		t.Error("a raw offload recorded a compress span")
	}
	if slow.PackedOffloads != offloads {
		t.Errorf("%d of %d requests over 30 Mbit/s travelled packed (estimate %.0f B/s), want all: the pre-send seeds the estimate",
			slow.PackedOffloads, offloads, slow.UplinkBytesPerSec)
	}
	if slow.UplinkBytesPerSec < 2e6 || slow.UplinkBytesPerSec > 4e6 {
		t.Errorf("uplink estimate over a 3.75 MB/s link = %.0f B/s", slow.UplinkBytesPerSec)
	}
	if slow.LastSnapshotBytes*4 > fast.LastSnapshotBytes*3 {
		t.Errorf("packed body %d B should be under three quarters of its text's %d B", slow.LastSnapshotBytes, fast.LastSnapshotBytes)
	}
	if c, ok := slow.LastTrace.Get(trace.StageCompress); !ok || c <= 0 {
		t.Error("a packed offload recorded no compress span")
	}
}

// TestTraceSpansCoverRoundTrip checks the tracing pipeline end to end
// against a real server: every offload yields a merged client+server trace
// whose stages are all present and whose spans sum to the independently
// measured end-to-end offload time — nothing double-counted, nothing lost.
func TestTraceSpansCoverRoundTrip(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	conn := dialEdge(t, addr)
	off, app := newOffloadedApp(t, conn, Options{
		Models: []ModelToSend{{Name: "tiny", Net: tinyModel(t)}},
	})
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	const offloads = 3
	for i := 0; i < offloads; i++ {
		classifyOnce(t, off, app, uint64(i+1))
	}

	st := off.Stats()
	tr := st.LastTrace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if len(tr.ID) != 16 {
		t.Errorf("trace ID %q, want 16 hex digits", tr.ID)
	}
	for _, c := range tr.ID {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Errorf("trace ID %q contains non-hex digit %q", tr.ID, c)
			break
		}
	}
	for _, stage := range []trace.Stage{
		trace.StageCapture, trace.StageEncode, trace.StageWire,
		trace.StageQueue, trace.StageExecute, trace.StageResultWire,
		trace.StageRestore,
	} {
		if _, ok := tr.Get(stage); !ok {
			t.Errorf("trace missing stage %s", stage)
		}
	}
	if _, ok := tr.Get(trace.StageCompress); ok {
		t.Error("uncompressed offload recorded a compress span")
	}
	if tr.BatchSize < 1 {
		t.Errorf("trace batch size = %d, want >= 1", tr.BatchSize)
	}

	// The spans must account for the observed end-to-end time: the wire
	// stages are derived as round trip minus the server's report, so the
	// trace total and the wall-clock Timing total measure the same interval
	// two ways. Allow loose slack for clock-read jitter.
	e2e := st.LastTiming.Total()
	if total := tr.Total(); total < e2e/2 || total > 2*e2e {
		t.Errorf("trace total %v not within [0.5x, 2x] of measured end-to-end %v", total, e2e)
	}

	// The recorder aggregated every offload.
	rec := off.TraceRecorder()
	for _, stage := range []trace.Stage{trace.StageCapture, trace.StageExecute, trace.StageRestore} {
		if got := rec.Stage(stage).Count(); got != offloads {
			t.Errorf("recorder %s count = %d, want %d", stage, got, offloads)
		}
	}
	sums := rec.Summaries()
	if len(sums) == 0 {
		t.Fatal("recorder summaries empty")
	}
	for _, s := range sums {
		if s.P50 > s.P95 || s.P95 > s.P99 {
			t.Errorf("stage %s quantiles not ordered: %+v", s.Stage, s)
		}
	}
}

func TestLocalFallbackTimingInPackage(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	conn := dialEdge(t, addr)
	conn.Close()
	off, app := newOffloadedApp(t, conn, Options{LocalFallback: true})
	if got := classifyOnce(t, off, app, 5); got == "" {
		t.Fatal("fallback produced no result")
	}
	if st := off.Stats(); st.LocalFallbacks != 1 {
		t.Errorf("stats = %+v", st)
	}
}
