package edge

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// shapedDial connects to addr through an emulated wireless link.
func shapedDial(t *testing.T, addr string, p netem.Profile) *client.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := client.NewConn(netem.Shape(nc, p))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestConcurrentOffloadsShapedNetwork drives many clients over real TCP
// connections shaped to an emulated wireless link, against a server with a
// small scheduler pool. Every client must get its own result back — none
// lost, none swapped with another session's.
func TestConcurrentOffloadsShapedNetwork(t *testing.T) {
	testutil.LeakCheck(t)
	srv, addr := startServer(t, Config{
		Installed:  true,
		Workers:    2,
		QueueDepth: 32,
	})
	model := tinyModel(t, "tiny")
	link := netem.Profile{BandwidthBitsPerSec: 50e6, Latency: 2 * time.Millisecond}

	const clients = 8
	const rounds = 2
	type outcome struct {
		got, want string
		err       error
	}
	results := make([][rounds]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				results[i][0].err = err
				return
			}
			conn := client.NewConn(netem.Shape(nc, link))
			defer conn.Close()
			app, err := mlapp.NewFullApp(fmt.Sprintf("shaped-c%d", i), "tiny", model, tinyLabels)
			if err != nil {
				results[i][0].err = err
				return
			}
			off, err := client.NewOffloader(app, conn, client.Options{
				OffloadEventTypes: []string{mlapp.EventClick},
				Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
			})
			if err != nil {
				results[i][0].err = err
				return
			}
			off.StartPreSend()
			if err := off.WaitForAcks(); err != nil {
				results[i][0].err = err
				return
			}
			for r := 0; r < rounds; r++ {
				img := mlapp.SyntheticImage(3*16*16, uint64(1000*i+r))
				if err := mlapp.LoadImage(app, img); err != nil {
					results[i][r].err = err
					return
				}
				app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
				if _, err := off.Run(10); err != nil {
					results[i][r].err = err
					return
				}
				results[i][r].got = mlapp.Result(app)
			}
		}(i)
	}
	wg.Wait()
	for i := range results {
		for r := 0; r < rounds; r++ {
			if err := results[i][r].err; err != nil {
				t.Errorf("client %d round %d: %v", i, r, err)
				continue
			}
			img := mlapp.SyntheticImage(3*16*16, uint64(1000*i+r))
			want := localResult(t, model, img)
			if got := results[i][r].got; got != want {
				t.Errorf("client %d round %d: result %q, want %q (result swapped or lost)", i, r, got, want)
			}
		}
	}
	st := srv.SchedStats()
	if want := int64(clients * rounds); st.Executed != want {
		t.Errorf("scheduler executed %d tasks, want %d", st.Executed, want)
	}
}

// TestConcurrentSameModelSessionsOneWorker checks that concurrent sessions
// of the same model arriving over real connections at a single worker —
// they queue behind one another and share one cached plan — each get
// their own correct result.
func TestConcurrentSameModelSessionsOneWorker(t *testing.T) {
	testutil.LeakCheck(t)
	srv, addr := startServer(t, Config{
		Installed:  true,
		Workers:    1,
		QueueDepth: 32,
	})
	model := tinyModel(t, "tiny")

	const clients = 8
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				conn, err := client.Dial(addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				app, err := mlapp.NewFullApp(fmt.Sprintf("same-model-c%d", i), "tiny", model, tinyLabels)
				if err != nil {
					return err
				}
				off, err := client.NewOffloader(app, conn, client.Options{
					OffloadEventTypes: []string{mlapp.EventClick},
					Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
				})
				if err != nil {
					return err
				}
				off.StartPreSend()
				if err := off.WaitForAcks(); err != nil {
					return err
				}
				img := mlapp.SyntheticImage(3*16*16, uint64(500+i))
				if err := mlapp.LoadImage(app, img); err != nil {
					return err
				}
				app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
				if _, err := off.Run(10); err != nil {
					return err
				}
				if got, want := mlapp.Result(app), localResult(t, model, img); got != want {
					return fmt.Errorf("result %q, want %q", got, want)
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
	st := srv.SchedStats()
	if st.Executed != clients {
		t.Errorf("executed = %d, want %d", st.Executed, clients)
	}
}

// slowCatalog returns a catalog whose single handler blocks until the test
// releases it, so queue occupancy is fully under test control.
func slowCatalog(t *testing.T, started chan<- struct{}, release <-chan struct{}) (*webapp.Catalog, *webapp.Registry) {
	t.Helper()
	reg := webapp.NewRegistry("slowapp")
	reg.MustRegister("slow", func(app *webapp.App, ev webapp.Event) error {
		started <- struct{}{}
		<-release
		return app.SetGlobal("done", "yes")
	})
	cat := webapp.NewCatalog()
	if err := cat.Add(reg); err != nil {
		t.Fatal(err)
	}
	return cat, reg
}

func slowOffloader(t *testing.T, reg *webapp.Registry, addr, id string, fallback bool) (*webapp.App, *client.Offloader) {
	t.Helper()
	app, err := webapp.NewApp(id, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("b", "go", "slow"); err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, dial(t, addr), client.Options{
		OffloadEventTypes: []string{"go"},
		LocalFallback:     fallback,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app, off
}

// TestShutdownDrainsScheduledSessions closes the server while one session
// is executing and another is queued: the running session must complete
// and deliver its result, the queued one must be cancelled with an Error
// frame (not a dropped connection), and no goroutines may leak.
func TestShutdownDrainsScheduledSessions(t *testing.T) {
	testutil.LeakCheck(t)
	baseline := runtime.NumGoroutine()
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	cat, reg := slowCatalog(t, started, release)
	srv, err := NewServer(Config{Catalog: cat, Installed: true, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	appA, offA := slowOffloader(t, reg, addr, "drain-a", false)
	appB, offB := slowOffloader(t, reg, addr, "drain-b", false)

	run := func(app *webapp.App, off *client.Offloader, errc chan<- error) {
		app.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
		_, err := off.Run(1)
		errc <- err
	}
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go run(appA, offA, errA)
	<-started // A's handler is executing on the single worker
	go run(appB, offB, errB)
	waitFor(t, "queued session", func() bool { return srv.SchedStats().QueueDepth == 1 })

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	// B is cancelled immediately at Close; its waiter gets an Error frame.
	if err := <-errB; !errors.Is(err, client.ErrServerError) {
		t.Errorf("queued session error = %v, want ErrServerError (cancelled with an Error frame)", err)
	}
	// A is still running; releasing it lets the drain finish and its
	// result flow back on the still-open connection.
	close(release)
	if err := <-errA; err != nil {
		t.Errorf("in-flight session: %v", err)
	}
	if v, _ := appA.Global("done"); v != "yes" {
		t.Errorf("in-flight session result not applied: done = %v", v)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve: %v", err)
	}
	waitFor(t, "goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestQueueFullRejectsAndClientFallsBack fills the single worker and the
// one-slot queue, then offloads a third session: the server must reject it
// with an overload Error frame and the client must finish the event
// locally.
func TestQueueFullRejectsAndClientFallsBack(t *testing.T) {
	testutil.LeakCheck(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	cat, reg := slowCatalog(t, started, release)
	cfg := Config{Catalog: cat, Installed: true, Workers: 1, QueueDepth: 1}
	srv, addr := startServerWith(t, cfg)

	appA, offA := slowOffloader(t, reg, addr, "full-a", false)
	appB, offB := slowOffloader(t, reg, addr, "full-b", false)

	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() {
		appA.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
		_, err := offA.Run(1)
		errA <- err
	}()
	<-started
	go func() {
		appB.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
		_, err := offB.Run(1)
		errB <- err
	}()
	waitFor(t, "queue to fill", func() bool { return srv.SchedStats().QueueDepth == 1 })

	// Third session: queue full. With local fallback enabled the event
	// still completes — on the client.
	appC, offC := slowOffloader(t, reg, addr, "full-c", true)
	appC.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
	fallbackDone := make(chan error, 1)
	go func() {
		_, err := offC.Run(1)
		fallbackDone <- err
	}()
	<-started // C's handler runs locally (in the client's own process)
	if st := srv.SchedStats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	// A fourth session without fallback must see the typed overload error
	// (the worker and queue are still held by A and B).
	appD, offD := slowOffloader(t, reg, addr, "full-d", false)
	appD.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
	if _, err := offD.Run(1); !errors.Is(err, client.ErrOverloaded) {
		t.Errorf("overload error = %v, want ErrOverloaded", err)
	}

	// Release every held handler (A and C now, B when it reaches the
	// worker) and collect the results.
	close(release)
	if err := <-fallbackDone; err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if v, _ := appC.Global("done"); v != "yes" {
		t.Errorf("fallback result not applied: done = %v", v)
	}
	if st := offC.Stats(); st.LocalFallbacks != 1 {
		t.Errorf("local fallbacks = %d, want 1", st.LocalFallbacks)
	}
	if err := <-errA; err != nil {
		t.Errorf("session A: %v", err)
	}
	if err := <-errB; err != nil {
		t.Errorf("session B: %v", err)
	}
}

// startServerWith is startServer for fully caller-specified configs.
func startServerWith(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return startServer(t, cfg)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
