package client

import (
	"bytes"
	"encoding/json"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/trace"
	"websnap/internal/vmsynth"
	"websnap/internal/webapp"
)

// startEdge runs a real edge server for in-package integration tests.
func startEdge(t *testing.T, cfg edge.Config) string {
	t.Helper()
	_, addr := startEdgeServer(t, cfg)
	return addr
}

// startEdgeServer is startEdge for a test that reads the server's metrics.
func startEdgeServer(t *testing.T, cfg edge.Config) (*edge.Server, string) {
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
	return srv, ln.Addr().String()
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
	run := app.Run // a nil offloader: the device runs the click
	if off != nil {
		run = off.Run
	}
	if _, err := run(10); err != nil {
		t.Fatal(err)
	}
	return mlapp.Result(app)
}

func TestOffloadEndToEndInPackage(t *testing.T) {
	testutil.LeakCheck(t)
	addr := startEdge(t, edge.Config{Installed: true})
	conn := dialEdge(t, addr)
	off, app := newOffloadedApp(t, conn, Options{})
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
	if st.LastSpan == nil || st.LastSpan.Duration() <= 0 {
		t.Error("timing not recorded")
	}
}

func TestRetargetInPackage(t *testing.T) {
	addrA := startEdge(t, edge.Config{Installed: true})
	addrB := startEdge(t, edge.Config{Installed: true})
	connA := dialEdge(t, addrA)
	off, app := newOffloadedApp(t, connA, Options{})
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

// TestInlinePreSendAnsweredByKeyIsTimed: an offload made before any ACK, to
// a server that already holds the model, pre-sends it inline by its key and
// ships no weights — and the round trip that took is part of the offload's
// timing.
func TestInlinePreSendAnsweredByKeyIsTimed(t *testing.T) {
	addr := startEdge(t, edge.Config{Installed: true})
	if _, err := dialEdge(t, addr).PreSendModel("owner", "tiny", tinyModel(t), ""); err != nil {
		t.Fatal(err)
	}
	off, app := newOffloadedApp(t, dialEdge(t, addr), Options{})
	classifyOnce(t, off, app, 1)
	st := off.Stats()
	if st.LastInlineModelSend <= 0 {
		t.Errorf("inline pre-send took %v, want its round trip", st.LastInlineModelSend)
	}
	if st.PreSendBytes != 0 || st.RefPreSendHits != 1 || st.LastModelIncluded || st.LastInlineModelBytes != 0 {
		t.Errorf("stats = %+v, want one hit and no weights shipped", st)
	}
}

// TestOffloadWaitsOnInFlightPreSend: an offload issued while the background
// pre-send is still on a slow link (the paper's Fig. 6 "before ACK" case)
// waits on that upload instead of sending the weights a second time: the
// server handles one model pre-send and the client uploads the model once.
func TestOffloadWaitsOnInFlightPreSend(t *testing.T) {
	srv, addr := startEdgeServer(t, edge.Config{Installed: true})
	link := netem.Profile{BandwidthBitsPerSec: 4e6, Latency: 2 * time.Millisecond}
	conn, err := DialWrapped(addr, func(c net.Conn) net.Conn { return netem.Shape(c, link) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	model := wideModel(t)
	app, err := mlapp.NewFullApp("wide-app", "wide", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffloader(app, conn, Options{OffloadEventTypes: []string{mlapp.EventClick}})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	classifyImage(t, off, app, 3*wideSide*wideSide, 1)
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	st := off.Stats()
	if got := srv.Metrics().ModelsStored; got != 1 {
		t.Errorf("server handled %d model pre-sends, want 1", got)
	}
	if wire := srv.Metrics().PreSendPackedBytes; st.PreSendBytes != wire || wire >= model.ModelBytes() || st.RefPreSendMisses != 1 {
		t.Errorf("uploaded %d B in %d uploads, want the model's %d packed bytes once", st.PreSendBytes, st.RefPreSendMisses, wire)
	}
	if !st.LastModelIncluded || st.LastInlineModelSend <= 0 {
		t.Errorf("the offload did not wait on the model: %+v", st)
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
// distinct floats), and the codec's time shows as the compress stage. Each
// link gets a server of its own, so that each pre-send uploads the weights.
func TestCompressedOffload(t *testing.T) {
	const offloads = 3
	run := func(link netem.Profile) (results []string, st Stats) {
		addr := startEdge(t, edge.Config{Installed: true})
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
	if _, ok := stageOf(fast.LastSpan, protocol.SpanCompress); ok {
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
	if c, ok := stageOf(slow.LastSpan, protocol.SpanCompress); !ok || c <= 0 {
		t.Error("a packed offload recorded no compress span")
	}
}

// stageOf returns the summed duration of span's direct children named op,
// and whether there is one.
func stageOf(span *protocol.SpanNode, op string) (d time.Duration, found bool) {
	for _, c := range span.Children {
		if c.Op == op {
			d += c.Duration()
			found = true
		}
	}
	return d, found
}

// TestTraceSpansCoverRoundTrip checks the tracing pipeline end to end
// against a real server: every offload yields one span tree — the client's
// stages around the server's served tree, grafted exactly as the result
// carried it — whose children sum to the independently measured
// end-to-end offload time: nothing double-counted, nothing lost.
func TestTraceSpansCoverRoundTrip(t *testing.T) {
	var traceLog syncBuffer
	addr := startEdge(t, edge.Config{Installed: true, TraceLog: &traceLog})
	conn := dialEdge(t, addr)
	off, app := newOffloadedApp(t, conn, Options{})
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	const offloads = 3
	var e2e time.Duration // the last offload's wall-clock time
	for i := 0; i < offloads; i++ {
		start := time.Now()
		classifyOnce(t, off, app, uint64(i+1))
		e2e = time.Since(start)
	}

	st := off.Stats()
	span := st.LastSpan
	if span == nil {
		t.Fatal("no span recorded")
	}
	if span.Op != "offload" || span.Addr != "client" {
		t.Errorf("root = %s@%s, want offload@client", span.Op, span.Addr)
	}
	if !isHex16(st.LastTraceID) {
		t.Errorf("trace ID %q, want 16 hex digits", st.LastTraceID)
	}
	for _, op := range []string{
		protocol.SpanCapture, protocol.SpanEncode, protocol.SpanWire,
		"serve", protocol.SpanResultWire, protocol.SpanRestore,
	} {
		if _, ok := stageOf(span, op); !ok {
			t.Errorf("span tree missing stage %s", op)
		}
	}
	if _, ok := stageOf(span, protocol.SpanCompress); ok {
		t.Error("uncompressed offload recorded a compress span")
	}

	// The children must account for the observed end-to-end time: the wire
	// stages are derived as round trip minus the server's span, so the
	// children's sum and the wall-clock time of the classify call measure
	// the same offload two ways. Allow loose slack for clock-read jitter.
	var sum int64
	for _, c := range span.Children {
		sum += c.Micros
	}
	if total := time.Duration(sum) * time.Microsecond; total < e2e/2 || total > 2*e2e {
		t.Errorf("children sum %v not within [0.5x, 2x] of measured end-to-end %v", total, e2e)
	}
	if span.Micros < sum {
		t.Errorf("root %d µs does not cover its children's %d µs", span.Micros, sum)
	}

	// The grafted serve node is the tree the result carried: the server's
	// trace log holds the same tree under the same trace ID.
	lines := strings.Split(strings.TrimSpace(traceLog.String()), "\n")
	var logged struct {
		TraceID string             `json:"traceId"`
		Span    *protocol.SpanNode `json:"span"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &logged); err != nil {
		t.Fatal(err)
	}
	if logged.TraceID != st.LastTraceID {
		t.Errorf("server logged trace %s last, client recorded %s", logged.TraceID, st.LastTraceID)
	}
	var serve *protocol.SpanNode
	for _, c := range span.Children {
		if c.Op == "serve" {
			serve = c
		}
	}
	got, _ := json.Marshal(serve)
	want, _ := json.Marshal(logged.Span)
	if !bytes.Equal(got, want) {
		t.Errorf("grafted serve node %s, the result carried %s", got, want)
	}
}

// TestWireLegsSubtractServedSpan: a served result's span root covers every
// stage the server timed, its stream-slot wait included, and the client's
// wire time is the round trip less that root — so a saturated stream window
// reads as server time, not as a slow link.
func TestWireLegsSubtractServedSpan(t *testing.T) {
	// One stream slot: of two concurrent offloads, one waits for the other.
	addr := startEdge(t, edge.Config{Installed: true, MaxStreams: 1})
	conn := dialEdge(t, addr)
	model := tinyModel(t)
	app, err := mlapp.NewFullApp("wire-app", "tiny", model, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.PreSendModel(app.ID(), "tiny", model, ""); err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	ev := webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick}
	snap, err := snapshot.Capture(app, snapshot.Options{DefaultModelPolicy: snapshot.ModelSpecOnly, PendingEvent: &ev})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	replies := make([]offloadReply, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i], errs[i] = conn.offloadBody(protocol.ReplyDelta, app.ID(), requestBody{wire: encoded})
		}()
	}
	wg.Wait()
	for i, r := range replies {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if r.Span == nil || len(r.Span.Children) == 0 || r.Span.Children[0].Op != protocol.SpanStreamWait {
			t.Fatalf("reply %d span = %+v, want a stream_wait stage first", i, r.Span)
		}
		var stages time.Duration
		for _, c := range r.Span.Children {
			stages += c.Duration()
		}
		if root := r.Span.Duration(); root < stages {
			t.Errorf("reply %d: root %v does not cover its stages' %v", i, root, stages)
		}
		if up, down := r.wireLegs(); up+down != max(r.RoundTrip-r.Span.Duration(), 0) {
			t.Errorf("reply %d: wire %v, want round trip %v less the root %v", i, up+down, r.RoundTrip, r.Span.Duration())
		}
	}

	// A round trip the stream window took 800 µs of holds 100 µs of wire.
	saturated := offloadReply{RoundTrip: time.Millisecond, WireBytes: 1, RespBytes: 1, Span: &protocol.SpanNode{
		Op: "serve", Micros: 900, Children: []*protocol.SpanNode{
			{Op: protocol.SpanStreamWait, Micros: 800}, {Op: protocol.SpanExecute, Micros: 100}}}}
	if up, down := saturated.wireLegs(); up+down != 100*time.Microsecond {
		t.Errorf("saturated window: wire %v, want 100µs", up+down)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the trace log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// watchConn shows every chunk written through it to onWrite.
type watchConn struct {
	net.Conn
	onWrite func([]byte)
}

func (c *watchConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.onWrite(p[:n])
	return n, err
}

// locatorFunc is an edge.BlobLocator that knows no holder and runs itself on
// every locate.
type locatorFunc func()

func (f locatorFunc) Locate([]string, string) (map[string][]string, *protocol.SpanNode, error) {
	f()
	return nil, nil, nil
}

// TestPreSendUplinkExcludesStreamWait: a pre-send's ack span starts when its
// frame arrives, as a result's does, so a wait for a stream slot is server
// time and the upload the client reads off the rest is the link's alone.
// The one stream slot is held by an offload whose handler blocks, and the
// pre-send's upload frame queues behind it.
func TestPreSendUplinkExcludesStreamWait(t *testing.T) {
	const hold = 100 * time.Millisecond
	entered, release := make(chan struct{}), make(chan struct{})
	holdReg := webapp.NewRegistry("holdapp")
	holdReg.MustRegister("hold", func(app *webapp.App, ev webapp.Event) error {
		close(entered)
		<-release
		return app.SetGlobal("done", "yes")
	})
	cat := webapp.NewCatalog()
	if err := cat.Add(holdReg); err != nil {
		t.Fatal(err)
	}
	holdApp, err := webapp.NewApp("hold-app", holdReg)
	if err != nil {
		t.Fatal(err)
	}
	if err := holdApp.AddEventListener("b", "go", "hold"); err != nil {
		t.Fatal(err)
	}
	ev := webapp.Event{Target: "b", Type: "go"}
	snap, err := snapshot.Capture(holdApp, snapshot.Options{PendingEvent: &ev})
	if err != nil {
		t.Fatal(err)
	}
	holdBody, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// The frames on the wire, in order: the reference offer, the holding
	// offload (sent while the server locates the offered key, the offer
	// holding the slot), then the upload the NeedBlob answer triggers.
	var (
		conn       atomic.Pointer[Conn]
		phase      atomic.Int32 // 1 once the holding body is out, 2 once the upload began
		holdSent   = make(chan struct{})
		uploadSent = make(chan struct{})
		holdErr    = make(chan error, 1)
	)
	onWrite := func(p []byte) {
		switch {
		case phase.Load() == 0 && bytes.Equal(p, holdBody):
			phase.Store(1)
			close(holdSent)
		case phase.Load() == 1:
			phase.Store(2)
			close(uploadSent)
		}
	}
	locate := locatorFunc(func() {
		go func() {
			_, err := conn.Load().offloadBody(protocol.ReplyDelta, holdApp.ID(), requestBody{wire: holdBody})
			holdErr <- err
		}()
		<-holdSent
	})
	addr := startEdge(t, edge.Config{Catalog: cat, Installed: true, MaxStreams: 1,
		AdvertiseAddr: "edge-under-test:0", Locator: locate})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	c, err := DialWrapped(addr, func(c net.Conn) net.Conn { return &watchConn{c, onWrite} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	conn.Store(c)

	var (
		ps    PreSend
		psErr error
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		ps, psErr = c.PreSendModel("presend-app", "tiny", tinyModel(t), trace.NewID())
	}()
	select {
	case <-uploadSent:
	case <-done:
		t.Fatalf("pre-send ended before its upload (err %v)", psErr)
	}
	select {
	case <-entered:
	case err := <-holdErr:
		t.Fatalf("holding offload ended before its handler ran: %v", err)
	}
	time.Sleep(hold) // the upload waits at least this long for the slot
	releaseOnce()
	<-done
	if err := <-holdErr; err != nil {
		t.Fatalf("holding offload: %v", err)
	}
	if psErr != nil {
		t.Fatal(psErr)
	}
	if ps.Uploaded == 0 {
		t.Fatal("the server answered the offer; the test needs an upload")
	}
	r := ps.Resolve
	if r == nil || len(r.Children) == 0 || r.Children[0].Op != protocol.SpanStreamWait {
		t.Fatalf("resolve span = %+v, want a stream_wait stage first", r)
	}
	var stages int64
	for _, c := range r.Children {
		stages += c.Micros
	}
	if r.Micros < stages {
		t.Errorf("resolve root %d µs does not cover its stages' %d µs", r.Micros, stages)
	}
	if ps.Uplink >= hold {
		t.Errorf("uplink %v, want below the %v the stream slot was held: the wait is server time", ps.Uplink, hold)
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
