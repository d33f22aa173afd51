package chaos_test

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/chaos"
	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/fleet"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/roam"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// flapFleetEdge starts one fleet-enabled edge server whose registry client
// dials through the flapped registry address.
func flapFleetEdge(t *testing.T, registryAddr string) (*edge.Server, string) {
	t.Helper()
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	rc := fleet.NewRegistryClient(registryAddr, fleet.ClientOptions{Timeout: 500 * time.Millisecond})
	srv, err := edge.NewServer(edge.Config{
		Catalog:       cat,
		Installed:     true,
		Workers:       2,
		AdvertiseAddr: addr,
		Locator:       rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	agent, err := fleet.StartAgent(fleet.AgentConfig{
		Client:   rc,
		Addr:     addr,
		Capacity: 2,
		TTL:      2 * time.Second,
		Interval: 20 * time.Millisecond,
		Load:     srv.LoadHint,
		Blobs:    srv.BlobKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		agent.Close()
		srv.Close()
		<-done
	})
	return srv, addr
}

// TestRegistryFlapFailoverSoak puts the fleet's control plane through an
// outage while the data plane keeps offloading: the registry goes dark
// mid-session, the client's placement view degrades to its cached
// last-known-good copy, and a forced failover to another server happens
// entirely during the outage. The soak invariants:
//
//   - every event's result stays bit-identical to a local twin, outage or
//     not (a dead registry degrades placement freshness, never
//     correctness);
//   - placement failover never double-executes an event: server execution
//     counters sum exactly to client-observed offloads, and every event
//     records exactly one terminal audit decision;
//   - the degraded view source is recorded in the switch audit trail.
func TestRegistryFlapFailoverSoak(t *testing.T) {
	testutil.CheckGoroutines(t, 5*time.Second)

	// Registry behind a flap listener the test toggles: heartbeats, view
	// fetches, and blob locates all hit the same outage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	flap := chaos.NewFlapListener(ln, func(int) bool { return down.Load() })
	rsrv := fleet.NewRegistryServer(fleet.NewRegistry(fleet.RegistryOptions{TTL: 2 * time.Second}), nil)
	rdone := make(chan error, 1)
	go func() { rdone <- rsrv.Serve(flap) }()
	t.Cleanup(func() {
		rsrv.Close()
		<-rdone
	})
	regAddr := ln.Addr().String()

	srvA, addrA := flapFleetEdge(t, regAddr)
	srvB, addrB := flapFleetEdge(t, regAddr)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := localExpected(t, model, []uint64{1, 2})

	var mu sync.Mutex
	preferred := addrA
	probe := func(addr string) (time.Duration, *protocol.LoadHint, error) {
		mu.Lock()
		defer mu.Unlock()
		if addr == preferred {
			return time.Millisecond, nil, nil
		}
		return 100 * time.Millisecond, nil, nil
	}
	rc := fleet.NewRegistryClient(regAddr, fleet.ClientOptions{Timeout: 500 * time.Millisecond})
	var switchLog strings.Builder
	roamer, err := roam.New(roam.Config{
		FleetView: fleet.PlacementView(rc, fleet.PolicyLoadWeighted, "flap-app"),
		Probe:     probe,
		Logger:    obs.NewLogger(&switchLog, obs.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := roamer.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer roamer.Close()
	if addr, _ := roamer.Current(); addr != addrA {
		t.Fatalf("connected to %q, want A=%q", addr, addrA)
	}

	app, err := mlapp.NewFullApp("flap-app", "tiny", model, tinyLabels)
	if err != nil {
		t.Fatal(err)
	}
	auditor := obs.NewAuditor(obs.AuditorOptions{})
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
		Audit:             auditor,
		LocalFallback:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	events := 0
	runOnce := func(stage string, seed uint64) {
		t.Helper()
		events++
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(soakImageVolume, seed)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(20); err != nil {
			t.Fatalf("%s: run: %v", stage, err)
		}
		if got := mlapp.Result(app); got != want.text[seed] {
			t.Errorf("%s: result %q, want %q (bit-identical through the outage)", stage, got, want.text[seed])
		}
	}

	// Steady state on A with a live registry.
	runOnce("A pre-outage", 1)
	runOnce("A pre-outage", 2)

	// Registry goes dark. Heartbeats start failing, the view freezes, and
	// the failover below runs on the cached last-known-good copy.
	down.Store(true)
	mu.Lock()
	preferred = addrB
	mu.Unlock()
	newConn, switched, err := roamer.Evaluate()
	if err != nil || !switched {
		t.Fatalf("failover during outage: switched=%v err=%v", switched, err)
	}
	if src := roamer.ViewSource(); src != "registry-cached" {
		t.Errorf("view source during outage = %q, want registry-cached", src)
	}
	if err := off.Retarget(newConn); err != nil {
		t.Fatal(err)
	}
	// B cannot consult the blob index mid-outage, so it answers the offered
	// key NeedBlob and the offloader re-uploads the bytes — wasteful, never
	// wrong.
	if err := off.WaitForAcks(); err != nil {
		t.Fatalf("pre-send to B during outage: %v", err)
	}
	runOnce("B mid-outage", 1)
	runOnce("B mid-outage", 2)

	// Registry recovers; heartbeats re-register and life goes on.
	down.Store(false)
	runOnce("B post-outage", 1)
	runOnce("B post-outage", 2)

	// The outage was actually exercised.
	if drops := flap.Drops(); len(drops) == 0 {
		t.Fatal("registry flap dropped no connections; outage never happened")
	}
	if !strings.Contains(switchLog.String(), `"view":"registry-cached"`) {
		t.Errorf("switch audit trail lacks the degraded view source:\n%s", switchLog.String())
	}

	// Exactly-once: each event executed on exactly one server (counters
	// reconcile with client-observed offloads — the clean data plane means
	// strict equality, so a double execution cannot hide), and exactly one
	// terminal audit decision per event.
	st := off.Stats()
	if st.LocalFallbacks != 0 {
		t.Errorf("local fallbacks = %d, want 0 (data plane was clean)", st.LocalFallbacks)
	}
	executed := int64(0)
	for _, srv := range []*edge.Server{srvA, srvB} {
		m := srv.Metrics()
		executed += m.SnapshotsExecuted
	}
	if executed != int64(st.Offloads) || st.Offloads != events {
		t.Errorf("executions=%d offloads=%d events=%d — placement failover must execute each event exactly once",
			executed, st.Offloads, events)
	}
	if got := auditor.Total(); got != int64(events) {
		t.Errorf("audit decisions = %d, want %d (exactly one terminal decision per event)", got, events)
	}
	mix := make(map[obs.DecisionPath]int64)
	for _, pc := range auditor.Summary().Mix {
		mix[pc.Path] = pc.Count
	}
	if mix[obs.PathError] != 0 {
		t.Errorf("%d error-path decisions despite a healthy data plane", mix[obs.PathError])
	}
}
