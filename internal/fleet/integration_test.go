package fleet_test

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/fleet"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/roam"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// The fleet integration test drives the whole subsystem end to end:
// registry + agents + placement-fed roaming + content-addressed blob
// sharing, asserting the tentpole's acceptance criteria — a client roaming
// A→B→C re-uploads zero model bytes after the first upload, every result
// is bit-identical to a local twin, and every event gets exactly one
// terminal audit decision.

// startRegistry runs a wire registry for integration tests.
func startRegistry(t *testing.T, ttl time.Duration) string {
	t.Helper()
	srv := fleet.NewRegistryServer(fleet.NewRegistry(fleet.RegistryOptions{TTL: ttl}), nil)
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

// startFleetEdge runs one fleet-enabled edge server: a fleet identity, a
// session store bounded to maxStoreBytes (0 = unbounded), a registry client
// as blob locator, and a heartbeat agent advertising load and the store's
// keys.
func startFleetEdge(t *testing.T, registryAddr string, maxStoreBytes int64) (*edge.Server, string) {
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
	rc := fleet.NewRegistryClient(registryAddr, fleet.ClientOptions{})
	srv, err := edge.NewServer(edge.Config{
		Catalog:       cat,
		Installed:     true,
		Workers:       2,
		AdvertiseAddr: addr,
		MaxStoreBytes: maxStoreBytes,
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

// waitForIndexedBlobs blocks until the registry's blob index covers every
// key the server currently holds (one heartbeat interval, bounded).
func waitForIndexedBlobs(t *testing.T, rc *fleet.RegistryClient, srv *edge.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		keys := srv.BlobKeys()
		holders, err := rc.Locate(keys)
		ok := err == nil && len(keys) > 0
		for _, k := range keys {
			if len(holders[k]) == 0 {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never indexed blobs %v (err %v)", keys, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// localResult computes the ground-truth result for one image seed on a
// local twin of the app.
func localResult(t *testing.T, model *nn.Network, labels []string, seed uint64) string {
	t.Helper()
	app, err := mlapp.NewFullApp("fleet-ref", "tiny", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	if _, err := app.Run(10); err != nil {
		t.Fatal(err)
	}
	res := mlapp.Result(app)
	if res == "" {
		t.Fatalf("local twin produced no result for seed %d", seed)
	}
	return res
}

// TestFleetRoamingNoModelReupload is the headline acceptance test: three
// fleet-enabled edge servers, a client whose candidate set comes from the
// registry through a placement policy, roaming A→B→C. After the first
// upload, handoffs transfer zero model bytes from the client — each new
// server resolves the model by content reference, fetching the blob from a
// peer — while results stay bit-identical to a local twin and every event
// records exactly one audit decision carrying the placement policy.
func TestFleetRoamingNoModelReupload(t *testing.T) {
	testutil.LeakCheck(t)
	regAddr := startRegistry(t, 2*time.Second)
	srvA, addrA := startFleetEdge(t, regAddr, 0)
	srvB, addrB := startFleetEdge(t, regAddr, 0)
	srvC, addrC := startFleetEdge(t, regAddr, 0)
	servers := map[string]*edge.Server{addrA: srvA, addrB: srvB, addrC: srvC}

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"cat", "dog", "bird"}
	modelKey := nn.Fingerprint(model)
	if modelKey == "" {
		t.Fatal("model has no fingerprint")
	}

	// The roamer's membership comes exclusively from the registry (no
	// static server list), ranked by the hash placement policy; a scripted
	// probe steers which server wins so the A→B→C itinerary is
	// deterministic.
	var mu sync.Mutex
	preferred := addrA
	setPreferred := func(addr string) {
		mu.Lock()
		preferred = addr
		mu.Unlock()
	}
	probe := func(addr string) (time.Duration, *protocol.LoadHint, error) {
		mu.Lock()
		defer mu.Unlock()
		if addr == preferred {
			return time.Millisecond, nil, nil
		}
		return 100 * time.Millisecond, nil, nil
	}
	rc := fleet.NewRegistryClient(regAddr, fleet.ClientOptions{})
	var switchLog strings.Builder
	roamer, err := roam.New(roam.Config{
		FleetView: fleet.PlacementView(rc, fleet.PolicyHash, "fleet-app"),
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
	if src := roamer.ViewSource(); src != "registry" {
		t.Errorf("view source = %q, want registry", src)
	}

	app, err := mlapp.NewFullApp("fleet-app", "tiny", model, labels)
	if err != nil {
		t.Fatal(err)
	}
	auditor := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
		Models:            []client.ModelToSend{{Name: "tiny", Net: model}},
		BlobRefPreSend:    true,
		Placement:         string(fleet.PolicyHash),
		Audit:             auditor,
	})
	if err != nil {
		t.Fatal(err)
	}
	off.StartPreSend()
	if err := off.WaitForAcks(); err != nil {
		t.Fatal(err)
	}

	runOnce := func(seed uint64) string {
		t.Helper()
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatal(err)
		}
		return mlapp.Result(app)
	}
	checkResult := func(stage string, seed uint64, got string) {
		t.Helper()
		if want := localResult(t, model, labels, seed); got != want {
			t.Errorf("%s: result %q, want %q (bit-identical to local twin)", stage, got, want)
		}
	}

	// First upload lands on A: the fleet holds nothing yet, so the
	// reference offer misses and the bytes go up exactly once.
	checkResult("A seed 1", 1, runOnce(1))
	st := off.Stats()
	if st.RefPreSendMisses != 1 || st.PreSendBytes != model.ModelBytes() {
		t.Fatalf("first upload: misses=%d bytes=%d, want 1 miss / %d bytes",
			st.RefPreSendMisses, st.PreSendBytes, model.ModelBytes())
	}

	// Roam A→B→C. Before each handoff, wait for the previous server's
	// heartbeat to advertise its model blob, so the handoff exercises the
	// index rather than racing it.
	hop := func(from, to string) {
		t.Helper()
		waitForIndexedBlobs(t, rc, servers[from])
		setPreferred(to)
		newConn, switched, err := roamer.Evaluate()
		if err != nil || !switched {
			t.Fatalf("hop %s→%s: switched=%v err=%v", from, to, switched, err)
		}
		if err := off.Retarget(newConn); err != nil {
			t.Fatal(err)
		}
		if err := off.WaitForAcks(); err != nil {
			t.Fatalf("pre-send after hop %s→%s: %v", from, to, err)
		}
	}

	// The first offload after a handoff is an ordinary full request: one
	// round trip, executed once by a server that answered no error, with no
	// model bytes sent on its account.
	firstAfterHop := func(stage, to string, seed uint64) {
		t.Helper()
		before := off.Stats()
		checkResult(stage, seed, runOnce(seed))
		after := off.Stats()
		if after.Offloads != before.Offloads+1 || after.LocalFallbacks != 0 || after.PreSendBytes != before.PreSendBytes {
			t.Errorf("%s: stats %+v → %+v, want one more offload and no bytes pre-sent", stage, before, after)
		}
		if m := servers[to].Metrics(); m.SnapshotsExecuted != 1 || m.Errors != 0 {
			t.Errorf("%s: server executed %d snapshot(s) and answered %d error(s), want 1 and 0 (no wasted attempt)",
				stage, m.SnapshotsExecuted, m.Errors)
		}
	}
	hop(addrA, addrB)
	firstAfterHop("B seed 2", addrB, 2)
	hop(addrB, addrC)
	firstAfterHop("C seed 3", addrC, 3)
	// Same input as the very first event: C must answer exactly what A did.
	checkResult("C seed 1 (vs A)", 1, runOnce(1))

	// Zero model re-upload after the first: both handoffs resolved the
	// model by reference, and the servers hold the blob without the client
	// ever re-sending it.
	st = off.Stats()
	if st.PreSendBytes != model.ModelBytes() {
		t.Errorf("total pre-send bytes = %d, want %d (a single upload)", st.PreSendBytes, model.ModelBytes())
	}
	if st.RefPreSendHits != 2 || st.RefPreSendMisses != 1 {
		t.Errorf("ref pre-sends: hits=%d misses=%d, want 2 hits / 1 miss", st.RefPreSendHits, st.RefPreSendMisses)
	}
	for name, srv := range map[string]*edge.Server{"B": srvB, "C": srvC} {
		held := false
		for _, k := range srv.BlobKeys() {
			if k == modelKey {
				held = true
			}
		}
		if !held {
			t.Errorf("server %s does not hold model blob %s after handoff", name, modelKey)
		}
	}

	// Exactly-once execution: 4 events, one server execution each, split
	// 1/1/2 across the itinerary.
	if st.Offloads != 4 {
		t.Errorf("offloads = %d, want 4", st.Offloads)
	}
	wantExec := map[string]int64{addrA: 1, addrB: 1, addrC: 2}
	for addr, srv := range servers {
		m := srv.Metrics()
		if got := m.SnapshotsExecuted; got != wantExec[addr] {
			t.Errorf("server %s executed %d events, want %d", addr, got, wantExec[addr])
		}
		// All a session leaves at a server is its model.
		if m.StoreBytes != model.ResidentBytes() {
			t.Errorf("server %s holds %d B, the model is %d B", addr, m.StoreBytes, model.ResidentBytes())
		}
	}

	// Exactly one terminal audit decision per event, each stamped with the
	// placement policy that chose the target.
	if got := auditor.Total(); got != 4 {
		t.Errorf("audit decisions = %d, want 4 (one per event)", got)
	}
	for _, d := range auditor.Recent() {
		if d.Path != obs.PathFull {
			t.Errorf("decision path = %s, want full", d.Path)
		}
		if d.Placement != string(fleet.PolicyHash) {
			t.Errorf("decision placement = %q, want %q", d.Placement, fleet.PolicyHash)
		}
	}

	// The switch audit trail names the live registry as the view source.
	if !strings.Contains(switchLog.String(), `"view":"registry"`) {
		t.Errorf("switch log lacks the registry view source:\n%s", switchLog.String())
	}
}

// TestFleetStoreBoundedByOneCap pins that one byte cap bounds everything a
// fleet-joined server holds, the bytes it serves to peers included: sessions
// with models of their own churn through a store with room for three, the
// charge never passes the cap and is the held models' bytes exactly — serving
// offloads adds nothing — every key the server advertises can be fetched and
// is what its key says, and an evicted key is neither served nor — one
// heartbeat later — located by the registry.
func TestFleetStoreBoundedByOneCap(t *testing.T) {
	testutil.LeakCheck(t)
	labels := []string{"cat", "dog", "bird"}
	const sessions = 8
	modelName := func(i int) string { return fmt.Sprintf("tiny-%d", i) }
	buildModel := func(i int) *nn.Network {
		t.Helper()
		model, err := models.BuildTinyNet(modelName(i), 3)
		if err != nil {
			t.Fatal(err)
		}
		return model
	}
	request := func(appID string, model *nn.Network, seed uint64) []byte {
		t.Helper()
		app, err := mlapp.NewFullApp(appID, "tiny", model, labels)
		if err != nil {
			t.Fatal(err)
		}
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, seed)); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Capture(app, snapshot.Options{
			DefaultModelPolicy: snapshot.ModelOmit,
			PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
		})
		if err != nil {
			t.Fatal(err)
		}
		encoded, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return encoded
	}
	modelBytes := buildModel(1).ResidentBytes()
	capBytes := modelBytes * 7 / 2 // room for three models but not four

	regAddr := startRegistry(t, 2*time.Second)
	srv, addr := startFleetEdge(t, regAddr, capBytes)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var modelKeys []string
	for i := 1; i <= sessions; i++ {
		appID, model := fmt.Sprintf("capped-%d", i), buildModel(i)
		if err := conn.PreSendModel(appID, "tiny", model); err != nil {
			t.Fatal(err)
		}
		if _, _, err := conn.OffloadSnapshot(appID, request(appID, model, uint64(i)), false); err != nil {
			t.Fatal(err)
		}
		modelKeys = append(modelKeys, nn.Fingerprint(model))
		got := srv.Metrics().StoreBytes
		if got > capBytes {
			t.Fatalf("after session %d: store charged %d B, cap %d", i, got, capBytes)
		}
		if want := int64(min(i, 3)) * modelBytes; got != want {
			t.Fatalf("after session %d: store charged %d B, want %d B of models and nothing else", i, got, want)
		}
	}
	if srv.Metrics().StoreEvictions == 0 {
		t.Fatalf("%d sessions through a %d B store evicted nothing; the bound is untested", sessions, capBytes)
	}

	// fetch is one peer's MsgBlobGet.
	fetch := func(key string) ([]byte, error) {
		peer, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		req, err := protocol.Encode(protocol.MsgBlobGet, protocol.BlobGetHeader{Key: key}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var hdr protocol.BlobDataHeader
		resp, err := protocol.Call(peer, 5*time.Second, req, protocol.MsgBlobData, &hdr)
		if err != nil {
			return nil, err
		}
		return resp.Body, protocol.VerifyBody(resp.Body, hdr.BodyCRC)
	}
	advertised := make(map[string]bool)
	for _, key := range srv.BlobKeys() {
		advertised[key] = true
		body, err := fetch(key)
		if err != nil {
			t.Errorf("advertised key %s cannot be fetched: %v", key, err)
			continue
		}
		i := slices.Index(modelKeys, key) + 1
		if i == 0 {
			t.Errorf("advertised key %s is no session's model", key)
			continue
		}
		rebuilt := buildModel(i)
		if err := rebuilt.DecodeWeights(bytes.NewReader(body)); err != nil || nn.Fingerprint(rebuilt) != key {
			t.Errorf("model blob does not rebuild to %s (decode err %v)", key, err)
		}
	}
	if len(advertised) != 3 || !advertised[modelKeys[sessions-1]] {
		t.Errorf("three models fit and the newest must be held; advertised %v", srv.BlobKeys())
	}
	var evicted []string
	for _, key := range modelKeys {
		if advertised[key] {
			continue
		}
		evicted = append(evicted, key)
		if _, err := fetch(key); err == nil {
			t.Errorf("evicted key %s is still served", key)
		}
	}
	if len(evicted) == 0 {
		t.Fatal("every model is still advertised after evictions")
	}

	// The registry's index follows the heartbeat: it names this server for
	// what it holds and, once the retraction has arrived, for nothing else.
	rc := fleet.NewRegistryClient(regAddr, fleet.ClientOptions{})
	waitForIndexedBlobs(t, rc, srv)
	deadline := time.Now().Add(5 * time.Second)
	for {
		holders, err := rc.Locate(evicted)
		if err == nil && len(holders) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still locates evicted keys: %v (err %v)", holders, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
