package edge

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/mlapp"
	"websnap/internal/webapp"
)

// TestMaxConnsRefusesExcess: beyond the configured connection cap, new
// clients receive a clean "at capacity" error instead of hanging.
func TestMaxConnsRefusesExcess(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true, MaxConns: 1})
	model := tinyModel(t, "tiny")

	// First connection occupies the only slot (the slot is taken at
	// accept time, before any request).
	conn1 := dial(t, addr)
	if err := conn1.PreSendModel("app-1", "tiny", model); err != nil {
		t.Fatalf("first conn: %v", err)
	}

	// Second connection must be refused on its first request.
	conn2 := dial(t, addr)
	err := conn2.PreSendModel("app-2", "tiny", model)
	if !errors.Is(err, client.ErrServerError) || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("err = %v, want at-capacity server error", err)
	}

	// Releasing the first connection frees the slot.
	conn1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn3 := dial(t, addr)
		if err := conn3.PreSendModel("app-3", "tiny", model); err == nil {
			conn3.Close()
			break
		}
		conn3.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMaxConnsServesUpToCap: exactly MaxConns clients work concurrently.
func TestMaxConnsServesUpToCap(t *testing.T) {
	const capacity = 3
	_, addr := startServer(t, Config{Installed: true, MaxConns: capacity})
	model := tinyModel(t, "tiny")
	var wg sync.WaitGroup
	errs := make([]error, capacity)
	for i := 0; i < capacity; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			errs[i] = conn.PreSendModel("app", "tiny", model)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d within cap failed: %v", i, err)
		}
	}
}

// TestServerMetrics: the operation counters reflect the traffic served.
func TestServerMetrics(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true, MaxConns: 1})
	model := tinyModel(t, "tiny")

	conn := dial(t, addr)
	app, err := mlapp.NewFullApp("app-metrics", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	// A second connection is refused at the cap.
	refused := dial(t, addr)
	if err := refused.PreSendModel("x", "tiny", model); err == nil {
		t.Fatal("expected capacity refusal")
	}

	m := srv.Metrics()
	if m.ConnsServed != 1 || m.ConnsRefused != 1 {
		t.Errorf("conns served/refused = %d/%d, want 1/1", m.ConnsServed, m.ConnsRefused)
	}
	if m.ModelsStored != 1 {
		t.Errorf("models stored = %d, want 1", m.ModelsStored)
	}
	if m.SnapshotsExecuted != 2 {
		t.Errorf("snapshots executed = %d, want 2", m.SnapshotsExecuted)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d, want 0 (refusals are counted separately)", m.Errors)
	}
}

// TestMetricsHandler: the HTTP observability surface serves the counters.
func TestMetricsHandler(t *testing.T) {
	srv, addr := startServer(t, Config{Installed: true})
	conn := dial(t, addr)
	if err := conn.PreSendModel("app", "tiny", tinyModel(t, "tiny")); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, want := range []string{"\nwebsnap_installed 1\n", "\nwebsnap_models_stored_total 1\n"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(want), rec.Body)
		}
	}

	rec = httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

// TestCloseWithLiveConnection is a regression test: Close must terminate
// idle client connections instead of blocking forever on their readers.
func TestCloseWithLiveConnection(t *testing.T) {
	srv, err := NewServer(Config{Catalog: testCatalog(t), Installed: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	conn := dial(t, ln.Addr().String())
	if err := conn.PreSendModel("app", "tiny", tinyModel(t, "tiny")); err != nil {
		t.Fatal(err)
	}
	// The connection stays open and idle; Close must still return.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live idle connection")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestIdleTimeoutClosesConnection: a connection that stays silent past the
// idle timeout is closed by the server; an active one keeps working.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	_, addr := startServer(t, Config{Installed: true, IdleTimeout: 100 * time.Millisecond})
	model := tinyModel(t, "tiny")

	idle := dial(t, addr)
	if err := idle.PreSendModel("app-idle", "tiny", model); err != nil {
		t.Fatalf("initial request: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := idle.PreSendModel("app-idle", "tiny2", model); err == nil {
		t.Error("request after idle timeout should fail (connection closed)")
	}

	// An active connection within the timeout keeps working.
	active := dial(t, addr)
	for i := 0; i < 5; i++ {
		app, err := mlapp.NewFullApp("app-active", "tiny", model, tinyLabels)
		if err != nil {
			t.Fatal(err)
		}
		off, err := client.NewOffloader(app, active, client.Options{
			OffloadEventTypes: []string{mlapp.EventClick},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, uint64(i))); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatalf("active conn round %d: %v", i, err)
		}
		time.Sleep(30 * time.Millisecond) // well within the timeout
	}
}
