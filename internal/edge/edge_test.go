package edge

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/snapshot"
	"websnap/internal/vmsynth"
	"websnap/internal/webapp"
)

// testCatalog returns a catalog holding both mlapp code bundles.
func testCatalog(t testing.TB) *webapp.Catalog {
	t.Helper()
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(mlapp.PartialRegistry()); err != nil {
		t.Fatal(err)
	}
	return cat
}

// startServer runs an installed edge server on a loopback listener and
// returns it with its address; cleanup is registered on t.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = testCatalog(t)
	}
	srv, err := NewServer(cfg)
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
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func tinyModel(t testing.TB, name string) *nn.Network {
	t.Helper()
	net, err := models.BuildTinyNet(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

var tinyLabels = []string{"cat", "dog", "bird"}

// localResult runs the same app entirely locally and returns the result.
func localResult(t *testing.T, model *nn.Network, img webapp.Float32Array) string {
	t.Helper()
	app, err := mlapp.NewFullApp("ref", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := app.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := mlapp.Result(app); got != "" {
		return got
	}
	t.Fatal("local reference produced no result")
	return ""
}

// TestOffloadAfterACK is the paper's main configuration: pre-send the
// model, wait for the ACK, then offload the inference event. The client
// must see the same result as local execution, and the shipped snapshot
// must be small (spec-only).
func TestOffloadAfterACK(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	conn := dial(t, addr)

	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 1)
	want := localResult(t, model, img)

	app, err := mlapp.NewFullApp("app-after-ack", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatalf("pre-send: %v", err)
	}
	if !off.ModelAcked("tiny") {
		t.Fatal("model not acked")
	}

	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatalf("offloaded run: %v", err)
	}
	if got := mlapp.Result(app); got != want {
		t.Errorf("offloaded result = %q, want %q", got, want)
	}
	st := off.Stats()
	if st.Offloads != 1 {
		t.Errorf("offloads = %d, want 1", st.Offloads)
	}
	if st.LastModelIncluded {
		t.Error("snapshot after ACK should not include model weights")
	}
	// The result text must also be visible in the DOM the server updated.
	if node := app.DOM().Find(mlapp.ResultID); node == nil || node.Text != want {
		t.Error("DOM not updated by result snapshot")
	}
	// Real-path phase timing (Fig 7 counterpart) must be populated: the
	// client's stages around the server's served tree.
	span := st.LastSpan
	if span == nil {
		t.Fatal("no span recorded")
	}
	stage := func(op string) (d time.Duration) {
		for _, c := range span.Children {
			if c.Op == op {
				d += c.Duration()
			}
		}
		return d
	}
	captureEncode := stage(protocol.SpanCapture) + stage(protocol.SpanEncode)
	roundTrip := stage(protocol.SpanWire) + stage("serve") + stage(protocol.SpanResultWire)
	if captureEncode <= 0 || roundTrip <= 0 || stage(protocol.SpanRestore) <= 0 {
		t.Errorf("timing not populated: %+v", span.Children)
	}
	if st.LastInlineModelSend != 0 {
		t.Errorf("post-ACK offload should not ship models inline: %v", st.LastInlineModelSend)
	}
}

// TestOffloadBeforeACK: no pre-sending; the snapshot must carry the model
// weights and still produce the right result (slower but correct).
func TestOffloadBeforeACK(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	conn := dial(t, addr)

	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 2)
	want := localResult(t, model, img)

	app, err := mlapp.NewFullApp("app-before-ack", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatalf("offloaded run: %v", err)
	}
	if got := mlapp.Result(app); got != want {
		t.Errorf("result = %q, want %q", got, want)
	}
	if st := off.Stats(); !st.LastModelIncluded {
		t.Error("snapshot before ACK should include model weights")
	}
}

// TestSnapshotSizeShrinksAfterACK compares the two configurations' total
// shipped bytes — the quantity behind Table 1's with/without pre-sending
// rows: the pre-ACK offload must additionally carry the model files.
func TestSnapshotSizeShrinksAfterACK(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})

	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 3)
	run := func(preSend bool) int64 {
		conn := dial(t, addr)
		app, err := mlapp.NewFullApp(fmt.Sprintf("app-size-%v", preSend), "tiny", model, tinyLabels)
		if err != nil {
			t.Fatal(err)
		}
		off, err := client.NewOffloader(app, conn, client.Options{OffloadEventTypes: []string{mlapp.EventClick}})
		if err != nil {
			t.Fatal(err)
		}
		if preSend {
			off.StartPreSend()
			if err := off.WaitForAcks(); err != nil {
				t.Fatal(err)
			}
		}
		if err := mlapp.LoadImage(app, img); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatal(err)
		}
		st := off.Stats()
		return st.LastSnapshotBytes + st.LastInlineModelBytes
	}
	withPre := run(true)
	withoutPre := run(false)
	if withPre >= withoutPre {
		t.Errorf("post-ACK offload (%d B) should ship less than pre-ACK offload (%d B)",
			withPre, withoutPre)
	}
}

// TestPartialInferenceFlow exercises Fig 5: front() runs locally, the
// snapshot ships denatured feature data (not the image), rear() runs at the
// server, and only the rear model was ever pre-sent.
func TestPartialInferenceFlow(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	conn := dial(t, addr)

	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 4)
	want := localResult(t, model, img)

	const splitIndex = 3 // through pool1: ">= one layer" privacy constraint holds
	app, err := mlapp.NewPartialApp("app-partial", "tiny", model, splitIndex, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventFrontComplete},
		ExcludeModels:     []string{"tiny" + mlapp.FrontSuffix},
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}

	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if got := mlapp.Result(app); got != want {
		t.Errorf("partial result = %q, want %q (full inference)", got, want)
	}

	// Privacy: the server only ever stored the rear model, and the raw
	// image was dropped before the snapshot left the client.
	if _, ok := srv.Store().Get("app-partial", "tiny"+mlapp.FrontSuffix); ok {
		t.Error("front model must never reach the server")
	}
	if _, ok := srv.Store().Get("app-partial", "tiny"+mlapp.RearSuffix); !ok {
		t.Error("rear model should be stored at the server")
	}
	if v, _ := app.Global(mlapp.GlobalImage); v != nil {
		t.Error("image global should be nil after front()")
	}
}

// TestUnknownCodeHash: a snapshot whose app bundle the server does not know
// must produce a clean server error.
func TestUnknownCodeHash(t *testing.T) {
	// Server with an empty catalog.
	_, addr := startServer(t, Config{Installed: true, Catalog: webapp.NewCatalog()})
	conn := dial(t, addr)

	model := tinyModel(t, "tiny")
	app, err := mlapp.NewFullApp("app-x", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Capture(app, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = conn.OffloadSnapshot("app-x", wire, false)
	if !errors.Is(err, client.ErrServerError) {
		t.Errorf("err = %v, want ErrServerError", err)
	}
	if err != nil && !strings.Contains(err.Error(), "unknown app code") {
		t.Errorf("err = %v, want mention of unknown app code", err)
	}
}

// TestOnDemandInstallation: a server without the offloading system rejects
// offloads until a VM overlay has been synthesized (§III.B.3), then serves
// normally.
func TestOnDemandInstallation(t *testing.T) {
	syn := vmsynth.NewSynthesizer(vmsynth.BaseImage{Name: "ubuntu-12.04", Bytes: 1 << 30})
	_, addr := startServer(t, Config{Installed: false, Synthesizer: syn})
	conn := dial(t, addr)

	model := tinyModel(t, "tiny")

	// Pre-send before installation must fail.
	if _, err := conn.PreSendModel("app-i", "tiny", model, ""); !errors.Is(err, client.ErrServerError) {
		t.Fatalf("pre-send before install = %v, want ErrServerError", err)
	}

	// Ship an overlay (real compressed bytes at a reduced scale).
	data := []byte(strings.Repeat("offloading-system-binaries", 4096))
	overlay, err := vmsynth.BuildOverlay(vmsynth.Component{
		Name: "system", RawBytes: int64(len(data)), CompressRatio: 0.4, Data: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.InstallOverlay("ubuntu-12.04", overlay.Compressed); err != nil {
		t.Fatalf("install: %v", err)
	}

	// Now the normal flow works.
	img := mlapp.SyntheticImage(3*16*16, 5)
	want := localResult(t, model, img)
	app, err := mlapp.NewFullApp("app-i", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := mlapp.Result(app); got != want {
		t.Errorf("result = %q, want %q", got, want)
	}
}

// TestInstallWrongBaseImage: synthesis against a base image the server does
// not have must fail.
func TestInstallWrongBaseImage(t *testing.T) {
	syn := vmsynth.NewSynthesizer(vmsynth.BaseImage{Name: "ubuntu-12.04", Bytes: 1})
	_, addr := startServer(t, Config{Installed: false, Synthesizer: syn})
	conn := dial(t, addr)
	data := []byte(strings.Repeat("x", 1024))
	overlay, err := vmsynth.BuildOverlay(vmsynth.Component{
		Name: "system", RawBytes: int64(len(data)), CompressRatio: 0.5, Data: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.InstallOverlay("debian-99", overlay.Compressed); !errors.Is(err, client.ErrServerError) {
		t.Errorf("err = %v, want ErrServerError", err)
	}
}

// TestLocalFallback: when the edge server is unreachable, the offloader
// executes the event locally (the paper's "better for the client to execute
// the DNN locally" observation made operational).
func TestLocalFallback(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	conn := dial(t, addr)
	conn.Close() // sever the link before offloading

	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 6)
	want := localResult(t, model, img)

	app, err := mlapp.NewFullApp("app-fb", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		LocalFallback:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if got := mlapp.Result(app); got != want {
		t.Errorf("fallback result = %q, want %q", got, want)
	}
	st := off.Stats()
	if st.LocalFallbacks != 1 || st.Offloads != 0 {
		t.Errorf("stats = %+v, want 1 fallback, 0 offloads", st)
	}
}

// TestOffloadErrorWithoutFallback surfaces the failure when fallback is
// disabled.
func TestOffloadErrorWithoutFallback(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	conn := dial(t, addr)
	conn.Close()

	model := tinyModel(t, "tiny")
	app, err := mlapp.NewFullApp("app-nf", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 7)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err == nil {
		t.Error("offload over dead connection should fail without fallback")
	}
}

// TestServerHandoff: snapshot-based offloading has no dependence on the
// previous server (§I) — after switching to a brand-new edge server, the
// client can continue offloading immediately.
func TestServerHandoff(t *testing.T) {
	_, addr1 := startServer(t, Config{Installed: true})
	_, addr2 := startServer(t, Config{Installed: true})

	model := tinyModel(t, "tiny")
	img := mlapp.SyntheticImage(3*16*16, 8)
	want := localResult(t, model, img)

	app, err := mlapp.NewFullApp("app-move", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, img); err != nil {
		t.Fatal(err)
	}

	runOn := func(addr string) string {
		conn := dial(t, addr)
		off, err := client.NewOffloader(app, conn, client.Options{
			OffloadEventTypes: []string{mlapp.EventClick},
		})
		if err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatalf("offload to %s: %v", addr, err)
		}
		return mlapp.Result(app)
	}
	if got := runOn(addr1); got != want {
		t.Errorf("server 1 result = %q, want %q", got, want)
	}
	// The second server has never seen this app or model: the snapshot
	// alone must be enough.
	if got := runOn(addr2); got != want {
		t.Errorf("server 2 result = %q, want %q", got, want)
	}
}

// TestConcurrentClients: the edge server handles parallel sessions from
// independent client devices.
func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true})
	model := tinyModel(t, "tiny")

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				conn, err := client.Dial(addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				img := mlapp.SyntheticImage(3*16*16, uint64(100+i))
				app, err := mlapp.NewFullApp(fmt.Sprintf("app-c%d", i), "tiny", model, tinyLabels)
				if err != nil {
					return err
				}
				off, err := client.NewOffloader(app, conn, client.Options{
					OffloadEventTypes: []string{mlapp.EventClick},
				})
				if err != nil {
					return err
				}
				off.StartPreSend()
				if err := off.WaitForAcks(); err != nil {
					return err
				}
				if err := mlapp.LoadImage(app, img); err != nil {
					return err
				}
				app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
				if _, err := off.Run(10); err != nil {
					return err
				}
				if mlapp.Result(app) == "" {
					return errors.New("no result")
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestModelStore(t *testing.T) {
	s := newSessionStore(0)
	if _, ok := s.Get("a", "m"); ok {
		t.Error("empty store should miss")
	}
	m := tinyModel(t, "m")
	s.Put("a", "m", m)
	if got, ok := s.Get("a", "m"); !ok || got != m {
		t.Error("store lookup failed")
	}
	if _, ok := s.Get("b", "m"); ok {
		t.Error("models must be scoped per app")
	}
	res := s.Resolver("a")
	if got, ok := res.ResolveModel("m"); !ok || got != m {
		t.Error("resolver failed")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("nil catalog should fail")
	}
	if _, err := NewServer(Config{Catalog: webapp.NewCatalog(), Installed: false}); err == nil {
		t.Error("uninstalled server without synthesizer should fail")
	}
}
