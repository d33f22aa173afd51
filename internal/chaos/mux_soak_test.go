package chaos_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/chaos"
	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// The mux soak drives many concurrent offload sessions over ONE shared
// client.Conn: every session is a logical stream interleaved on the same
// TCP connection. The invariants are the one-session-per-conn soak's, plus
// the multiplexing claim itself:
//
//  1. Every event terminates with a result bit-identical to local
//     execution, no matter how streams interleave on the wire.
//  2. Exactly one audit decision per offload-eligible event.
//  3. The clean variant really does use a single TCP connection for all
//     sessions.
//  4. No goroutine leaks after the shared Conn closes (the reader
//     goroutine must join).

const muxSoakSessions = 64

// muxServer is soakServer scaled for 64 concurrent streams: queue depth
// beyond the stream count, so admission rejections don't dominate, while
// workers stay scarce enough that contention is real.
func muxServer(t *testing.T) (*edge.Server, string) {
	t.Helper()
	srv, err := edge.NewServer(edge.Config{
		Catalog:         muxCatalog(t),
		Installed:       true,
		Workers:         4,
		QueueDepth:      2 * muxSoakSessions,
		IdleTimeout:     10 * time.Second,
		TransferTimeout: 2 * time.Second,
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
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func muxCatalog(t *testing.T) *webapp.Catalog {
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

// runMuxSession drives one logical stream (its own app, offloader, and
// auditor) over the shared multiplexed conn. start synchronizes all
// sessions so the streams genuinely interleave.
func runMuxSession(idx int, conn *client.Conn, model *nn.Network,
	want *soakRefs, start <-chan struct{}) *sessionReport {
	rep := &sessionReport{seed: int64(idx)}
	kind := sessionKind(idx % int(numKinds))
	appID := fmt.Sprintf("mux-%s-%d", kind, idx)
	auditor := obs.NewAuditor(obs.AuditorOptions{})
	opts := client.Options{
		LocalFallback: true,
		Audit:         auditor,
	}
	var app *webapp.App
	var err error
	switch kind {
	case kindPartial:
		app, err = mlapp.NewPartialApp(appID, "tiny", model, soakSplitIndex, tinyLabels)
		if err == nil {
			opts.OffloadEventTypes = []string{mlapp.EventFrontComplete}
			opts.ExcludeModels = []string{"tiny" + mlapp.FrontSuffix}
			opts.AuditPath = obs.PathPartial
		}
	default:
		app, err = mlapp.NewFullApp(appID, "tiny", model, tinyLabels)
		opts.OffloadEventTypes = []string{mlapp.EventClick}
	}
	if err != nil {
		rep.failf("mux session %d (%s): build app: %v", idx, kind, err)
		return rep
	}
	off, err := client.NewOffloader(app, conn, opts)
	if err != nil {
		rep.failf("mux session %d (%s): offloader: %v", idx, kind, err)
		return rep
	}
	<-start
	off.StartPreSend()
	_ = off.WaitForAcks() //nolint:errcheck // faults may fail the pre-send; invariants below decide

	for e := 0; e < soakEventsPerSession; e++ {
		imgSeed := uint64(e + 1)
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(soakImageVolume, imgSeed)); err != nil {
			rep.failf("mux session %d (%s) event %d: load: %v", idx, kind, e, err)
			return rep
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(20); err != nil {
			rep.failf("mux session %d (%s) event %d: run: %v", idx, kind, e, err)
			continue
		}
		if got := mlapp.Result(app); got != want.text[imgSeed] {
			rep.failf("mux session %d (%s) event %d: result %q, want %q (bit-identical to local)",
				idx, kind, e, got, want.text[imgSeed])
		}
	}

	st := off.Stats()
	rep.offloads = st.Offloads
	if total := auditor.Total(); total != soakEventsPerSession {
		rep.failf("mux session %d (%s): %d audit decisions for %d offload-eligible events",
			idx, kind, total, soakEventsPerSession)
	}
	mix := make(map[obs.DecisionPath]int64)
	for _, pc := range auditor.Summary().Mix {
		mix[pc.Path] = pc.Count
	}
	if n := mix[obs.PathError]; n != 0 {
		rep.failf("mux session %d (%s): %d error-path decisions despite LocalFallback", idx, kind, n)
	}
	if got := mix[obs.PathFull] + mix[obs.PathPartial]; got != int64(st.Offloads) {
		rep.failf("mux session %d (%s): audit records %d offload decisions, stats say %d",
			idx, kind, got, st.Offloads)
	}
	if idx%2 == 0 && kind != kindPartial {
		packedLeg(rep, fmt.Sprintf("mux session %d (%s)", idx, kind), conn, app, want)
	}
	return rep
}

// muxSoak runs all sessions concurrently over one shared conn and collects
// failures.
func muxSoak(t *testing.T, conn *client.Conn, model *nn.Network, want *soakRefs) (reports []*sessionReport) {
	t.Helper()
	reports = make([]*sessionReport, muxSoakSessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < muxSoakSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = runMuxSession(i, conn, model, want, start)
		}(i)
	}
	close(start)
	wg.Wait()
	return reports
}

// TestMuxSoakInvariants runs 64 concurrent logical streams over a single
// clean TCP connection and checks every invariant plus the single-connection
// claim itself.
func TestMuxSoakInvariants(t *testing.T) {
	testutil.CheckGoroutines(t, 5*time.Second)
	testutil.CheckPoolBalance(t, 8192)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := localExpected(t, model, []uint64{1, 2, 3})
	srv, addr := muxServer(t)

	var dials atomic.Int64
	conn, err := client.DialWrapped(addr, func(c net.Conn) net.Conn {
		dials.Add(1)
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRequestTimeout(10 * time.Second)

	reports := muxSoak(t, conn, model, want)

	var failures []string
	clientOffloads := int64(0)
	for _, rep := range reports {
		failures = append(failures, rep.failures...)
		clientOffloads += int64(rep.offloads)
	}
	const maxPrint = 20
	for i, f := range failures {
		if i == maxPrint {
			t.Errorf("... and %d more failures", len(failures)-maxPrint)
			break
		}
		t.Error(f)
	}

	// The multiplexing claim: all sessions shared one TCP connection, and
	// with no faults every offload-eligible event actually offloaded.
	if n := dials.Load(); n != 1 {
		t.Errorf("%d TCP connections dialed for %d sessions; mux should need exactly 1", n, muxSoakSessions)
	}
	m := srv.Metrics()
	if clientOffloads == 0 {
		t.Error("no offload succeeded over the multiplexed connection")
	}
	if m.SnapshotsExecuted < clientOffloads {
		t.Errorf("server executed %d offloads, clients observed %d successes",
			m.SnapshotsExecuted, clientOffloads)
	}
	t.Logf("mux soak: %d sessions over 1 conn, %d offloads", muxSoakSessions, clientOffloads)
}

// TestMuxSoakUnderChaos re-runs the multiplexed soak behind a seeded fault
// injector: frame corruption and stalls now hit a connection shared by all
// streams, so one fault unwinds many sessions at once — results must still
// be bit-identical to local execution and audit decisions exactly-once,
// with redials healing the shared connection in place.
func TestMuxSoakUnderChaos(t *testing.T) {
	testutil.CheckGoroutines(t, 5*time.Second)
	testutil.CheckPoolBalance(t, 8192)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := localExpected(t, model, []uint64{1, 2, 3})
	srv, addr := muxServer(t)

	seed := sessionSeed(soakBaseSeed(), 101)
	in := chaos.New(seed, chaos.Options{})
	conn, err := client.DialWrapped(addr, in.WrapConn)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRequestTimeout(soakTimeout)

	reports := muxSoak(t, conn, model, want)

	var failures []string
	clientOffloads := int64(0)
	for _, rep := range reports {
		failures = append(failures, rep.failures...)
		clientOffloads += int64(rep.offloads)
	}
	const maxPrint = 20
	for i, f := range failures {
		if i == maxPrint {
			t.Errorf("... and %d more failures — %s", len(failures)-maxPrint, testutil.Seed(seed))
			break
		}
		t.Error(f)
	}
	m := srv.Metrics()
	if m.SnapshotsExecuted < clientOffloads {
		t.Errorf("server executed %d offloads, clients observed %d successes — %s",
			m.SnapshotsExecuted, clientOffloads, testutil.Seed(seed))
	}
	t.Logf("mux chaos soak: %d sessions, %d offloads, %d plans — %s",
		muxSoakSessions, clientOffloads, len(in.Plans()), testutil.Seed(seed))
}

// TestBoundedStoreSoak pins the memory bound under sustained multiplexed
// load: with a byte cap on the session store, the sessions' models — the
// store's only tenants — churn through LRU eviction and the store's byte
// charge never exceeds the cap at any sampled instant. A session whose model
// was evicted falls back to local execution, so every invariant still holds.
// The server has a fleet identity, so the charge is also what it advertises.
func TestBoundedStoreSoak(t *testing.T) {
	testutil.CheckGoroutines(t, 5*time.Second)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := localExpected(t, model, []uint64{1, 2, 3})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for the full model or the partial sessions' rear part, not both:
	// the two kinds of session evict each other's model.
	capBytes := model.ResidentBytes()
	srv, err := edge.NewServer(edge.Config{
		Catalog:         muxCatalog(t),
		Installed:       true,
		Workers:         4,
		QueueDepth:      2 * muxSoakSessions,
		MaxStoreBytes:   capBytes,
		AdvertiseAddr:   ln.Addr().String(),
		IdleTimeout:     10 * time.Second,
		TransferTimeout: 2 * time.Second,
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-serveDone
	})

	// Sample the store's byte charge continuously while the soak runs.
	var maxSeen atomic.Int64
	sampleStop := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-sampleStop:
				return
			default:
			}
			if b := srv.Metrics().StoreBytes; b > maxSeen.Load() {
				maxSeen.Store(b)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRequestTimeout(10 * time.Second)
	reports := muxSoak(t, conn, model, want)
	close(sampleStop)
	<-sampleDone

	for _, rep := range reports {
		for _, f := range rep.failures {
			t.Error(f)
		}
	}
	m := srv.Metrics()
	if m.StoreEvictions == 0 {
		t.Fatalf("%d sessions through a %d-byte store evicted nothing; the bound is untested",
			muxSoakSessions, capBytes)
	}
	if peak := maxSeen.Load(); peak > capBytes {
		t.Errorf("store byte charge peaked at %d, cap %d", peak, capBytes)
	}
	if m.StoreBytes > capBytes {
		t.Errorf("final store bytes %d exceed cap %d", m.StoreBytes, capBytes)
	}
	t.Logf("bounded soak: peak %d / cap %d bytes, %d evictions",
		maxSeen.Load(), capBytes, m.StoreEvictions)
}
