package fleet_test

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/fleet"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/protocol"
	"websnap/internal/roam"
	"websnap/internal/telemetry"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// The telemetry integration tests drive the fleet-wide trace plane end to
// end: one trace ID propagated across a roam handoff's pre-send, through
// the new server's registry locate and peer blob fetch, merged back into a
// single span tree on the client — plus the SLO/flight-recorder incident
// path on a live edge server.

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestFleetRoamTraceTree is the tentpole acceptance test: a three-server
// fleet, a telemetry-enabled roaming client. The A→B handoff pre-send
// must come back as ONE span tree under one 16-hex trace ID covering
// every process the handoff touched: the client (root), server B (resolve),
// the registry (locate hop), and server A (peer blob serve).
func TestFleetRoamTraceTree(t *testing.T) {
	testutil.LeakCheck(t)
	regAddr := startRegistry(t, 2*time.Second)
	srvA, addrA := startFleetEdge(t, regAddr, 0)
	_, addrB := startFleetEdge(t, regAddr, 0)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"cat", "dog", "bird"}

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
	rc := fleet.NewRegistryClient(regAddr, fleet.ClientOptions{})
	roamer, err := roam.New(roam.Config{
		FleetView: rc.Members,
		Probe:     probe,
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

	app, err := mlapp.NewFullApp("trace-app", "tiny", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	flight := telemetry.NewFlightRecorder(1 << 20)
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Flight:            flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}
	// The session-start pre-send is not a handoff: no handoff trace yet.
	if off.Stats().LastHandoffSpan != nil {
		t.Fatal("LastHandoffSpan set before any handoff")
	}

	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 1)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatal(err)
	}

	// Roam A→B once A's heartbeat has advertised the model blob, so B's
	// pre-send resolution exercises the registry hop and a real peer fetch.
	waitForIndexedBlobs(t, rc, srvA)
	mu.Lock()
	preferred = addrB
	mu.Unlock()
	newConn, switched, err := roamer.Evaluate()
	if err != nil || !switched {
		t.Fatalf("hop A→B: switched=%v err=%v", switched, err)
	}
	if err := off.Retarget(newConn); err != nil {
		t.Fatal(err)
	}
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}

	span := off.Stats().LastHandoffSpan
	if span == nil {
		t.Fatal("telemetry-enabled handoff produced no span tree")
	}
	if span.Op != "handoff_presend" || span.Addr != "client" {
		t.Fatalf("tree root = %s@%s, want handoff_presend@client", span.Op, span.Addr)
	}
	// Walk the merged tree: every process the handoff touched must appear,
	// and every node must be parented under the single client root.
	byOp := map[string]*protocol.SpanNode{}
	nodes := 0
	span.Walk(func(n *protocol.SpanNode) {
		nodes++
		byOp[n.Op] = n
	})
	for op, wantAddr := range map[string]string{
		"presend_resolve": addrB,      // server B resolved the reference
		"registry_rpc":    regAddr,    // B's locate round trip
		"registry_locate": "registry", // the registry's own span
		"peer_fetch":      addrA,      // B pulled the blob from A
		"blob_serve":      addrA,      // A's serving span
	} {
		n, ok := byOp[op]
		if !ok {
			t.Fatalf("span tree lacks %s:\n%s", op, spanJSON(t, span))
		}
		if n.Addr != wantAddr {
			t.Errorf("%s span addr = %q, want %q", op, n.Addr, wantAddr)
		}
		if n.Micros < 0 {
			t.Errorf("%s span has negative duration %d", op, n.Micros)
		}
	}
	if nodes < 6 {
		t.Errorf("span tree has %d nodes, want >= 6 (root + 5 hops):\n%s", nodes, spanJSON(t, span))
	}

	// The flight recorder captured the handoff under one well-formed trace
	// ID, with the same tree as evidence.
	var handoffs []telemetry.FlightEntry
	for _, e := range flight.Dump() {
		if e.Reason == telemetry.FlightHandoff {
			handoffs = append(handoffs, e)
		}
	}
	if len(handoffs) == 0 {
		t.Fatal("flight recorder holds no handoff entry")
	}
	for _, e := range handoffs {
		if !traceIDRe.MatchString(e.TraceID) {
			t.Errorf("handoff flight entry trace ID %q is not 16-hex", e.TraceID)
		}
		if e.TraceID != handoffs[0].TraceID {
			t.Errorf("handoff pre-sends split across trace IDs %q and %q, want one",
				handoffs[0].TraceID, e.TraceID)
		}
		if e.Span == nil {
			t.Error("handoff flight entry carries no span tree")
		}
	}

	// The offload after the handoff still answers correctly (the trace
	// plane is observation only).
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 2)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatal(err)
	}
	if got, want := mlapp.Result(app), localResult(t, model, labels, 2); got != want {
		t.Errorf("post-handoff result %q, want %q", got, want)
	}
}

func spanJSON(t *testing.T, n *protocol.SpanNode) string {
	t.Helper()
	data, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestEdgeSLOBurnDepositsFlight induces a latency regression against an
// absurdly tight objective: the server's /slo must flip to burning, and
// the flight recorder must hold both the offending request's span tree
// (reason "slow") and the burn transition (reason "slo_burn").
func TestEdgeSLOBurnDepositsFlight(t *testing.T) {
	testutil.LeakCheck(t)
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		t.Fatal(err)
	}
	flight := telemetry.NewFlightRecorder(1 << 20)
	// Every real request is a regression against a 1 ns objective.
	slo, err := telemetry.NewDaemonSLO("edge-serve", time.Nanosecond, 0, flight, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(edge.Config{
		Catalog: cat, Installed: true, Workers: 1,
		SLO: slo, Flight: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	app, err := mlapp.NewFullApp("slo-app", "tiny", model, []string{"cat", "dog", "bird"})
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
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 7)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := off.Run(10); err != nil {
		t.Fatal(err)
	}

	if st := slo.Status(); !st.Burning {
		t.Fatalf("SLO not burning after regression: %+v", st)
	}
	var slow, burn int
	for _, e := range flight.Dump() {
		switch e.Reason {
		case telemetry.FlightSlow:
			slow++
			if e.Span == nil || e.Span.Op != "serve" {
				t.Errorf("slow entry span = %+v, want a serve tree", e.Span)
			}
		case telemetry.FlightBurn:
			burn++
		}
	}
	if slow == 0 || burn == 0 {
		t.Fatalf("flight dump: %d slow / %d burn entries, want both > 0", slow, burn)
	}

	// The operator surfaces agree: /slo reports burning, /readyz stays
	// green (slow is degraded, not dead) while naming the burn, and
	// /debug/flight serves the deposited evidence.
	admin := telemetry.AdminMux(telemetry.Admin{NotReady: srv.NotReady, SLO: slo, Flight: flight})
	rr := httptest.NewRecorder()
	admin.ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	var st telemetry.SLOStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || !st.Burning {
		t.Errorf("/slo = %s (err %v), want burning", rr.Body.String(), err)
	}
	rr = httptest.NewRecorder()
	admin.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 200 || rr.Body.String() != "ready (slo burning)\n" {
		t.Errorf("/readyz = %d %q, want 200 'ready (slo burning)'", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	admin.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
	var dump struct {
		Entries []telemetry.FlightEntry `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil || len(dump.Entries) == 0 {
		t.Errorf("/debug/flight = err %v, %d entries; want evidence", err, len(dump.Entries))
	}
}
