package chaos_test

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/chaos"
	"websnap/internal/client"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/snapshot"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// The soak drives many concurrent client↔edge offload sessions — full,
// partial, and int8-tier snapshot paths — each behind its own seeded fault
// injector, and asserts system-wide invariants:
//
//  1. Every offload-eligible event terminates with a result bit-identical
//     to local execution (LocalFallback is on, so faults may change WHERE
//     the handler ran, never WHAT it computed).
//  2. Exactly one audit decision per offload-eligible event, and the
//     decision mix reconciles with the offloader's counters.
//  3. No corrupted snapshot or frame is accepted: a single flipped bit
//     either fails a decoder or a checksum — it never yields a wrong
//     result (covered by invariant 1, since the injectors corrupt both
//     directions).
//  4. Server execution counters reconcile with client-observed successes.
//  5. No goroutine or pooled-buffer leaks survive shutdown.
//
// Every failure message carries the session's replay seed; the fault plan
// sequence is a pure function of that seed (chaos.TestSeedDeterminism and
// TestSoakSeedScheduleReplay pin this), so a failing session's exact fault
// schedule is reproducible from its seed alone.

const (
	soakEventsPerSession = 3
	soakImageVolume      = 3 * 16 * 16
	soakSplitIndex       = 3
	soakTimeout          = 800 * time.Millisecond
)

// soakBaseSeed is fixed so CI runs a stable seed set; SOAK_SEED overrides
// it for exploration (and for replaying a failure from another machine).
func soakBaseSeed() int64 {
	if v := os.Getenv("SOAK_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 20260806
}

// sessionSeed derives session i's injector seed from the base seed via a
// splitmix-style mix, so sessions are decorrelated but individually
// replayable.
func sessionSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// soakServer starts an installed edge server sized to see real contention
// under the soak's concurrency.
func soakServer(t *testing.T) (*edge.Server, string) {
	t.Helper()
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(mlapp.PartialRegistry()); err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(edge.Config{
		Catalog:         cat,
		Installed:       true,
		Workers:         3,
		QueueDepth:      8,
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

// soakRefs is the locally-computed ground truth every session's results
// are checked against: float32 result text and scores per image seed,
// plus the int8 plan's calibrated end-to-end error bound for quantized
// sessions.
type soakRefs struct {
	text   map[uint64]string
	scores map[uint64][]float32
	// qBound is the calibrated error bound of the model's int8 plan: a
	// quantized session's scores must land within it of the float32
	// reference, but are NOT expected to be bit-identical to it.
	qBound float32
}

// localExpected computes the reference results entirely locally: mlapp's
// result text depends only on (image, model), so one local run per image
// seed is the ground truth for every session and kind.
func localExpected(t *testing.T, model *nn.Network, seeds []uint64) *soakRefs {
	t.Helper()
	refs := &soakRefs{
		text:   make(map[uint64]string, len(seeds)),
		scores: make(map[uint64][]float32, len(seeds)),
	}
	for _, s := range seeds {
		app, err := mlapp.NewFullApp("soak-ref", "tiny", model, tinyLabels)
		if err != nil {
			t.Fatal(err)
		}
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(soakImageVolume, s)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := app.Run(10); err != nil {
			t.Fatal(err)
		}
		if refs.text[s] = mlapp.Result(app); refs.text[s] == "" {
			t.Fatalf("local reference for image seed %d produced no result", s)
		}
		sv, ok := app.Global(mlapp.GlobalScores)
		if !ok {
			t.Fatalf("local reference for image seed %d published no scores", s)
		}
		refs.scores[s] = append([]float32(nil), sv.(webapp.Float32Array)...)
	}
	qplan, err := model.PlanPrec(nn.PrecInt8, model.InputShape()...)
	if err != nil {
		t.Fatalf("compile int8 reference plan: %v", err)
	}
	refs.qBound = qplan.Quant().ErrBound
	return refs
}

var tinyLabels = []string{"cat", "dog", "bird"}

type sessionKind int

const (
	kindFull sessionKind = iota
	kindPartial
	// kindFull2 is a second plain full session: it keeps the slot the
	// retired request-delta sessions had, so session i is still of the kind
	// it always was and the soak carries the same load.
	kindFull2
	// kindQuant is a full-offload session running at the int8 quality
	// tier: the quality global rides its snapshots, so the server (or the
	// local fallback) executes the calibrated quantized kernels.
	kindQuant
	numKinds
)

func (k sessionKind) String() string {
	return [...]string{"full", "partial", "full2", "quant"}[k]
}

// sessionReport is one soak session's outcome.
type sessionReport struct {
	seed     int64
	plans    []chaos.Plan
	failures []string
	// offloads is the client-observed count of successful offload round
	// trips (for reconciliation against server execution counters).
	offloads int
}

func (r *sessionReport) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...)+" — "+testutil.Seed(r.seed))
}

// runSoakSession drives one complete client session under fault injection
// and checks the per-session invariants.
func runSoakSession(idx int, kind sessionKind, seed int64, addr string,
	model *nn.Network, want *soakRefs) *sessionReport {
	rep := &sessionReport{seed: seed}
	in := chaos.New(seed, chaos.Options{})
	defer func() { rep.plans = in.Plans() }()

	conn, err := client.DialWrapped(addr, in.WrapConn)
	if err != nil {
		rep.failf("session %d (%s): dial: %v", idx, kind, err)
		return rep
	}
	defer conn.Close()
	conn.SetRequestTimeout(soakTimeout)

	appID := fmt.Sprintf("soak-%s-%d", kind, idx)
	auditor := obs.NewAuditor(obs.AuditorOptions{})
	opts := client.Options{
		LocalFallback: true,
		Audit:         auditor,
	}
	var app *webapp.App
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
		if err == nil && kind == kindQuant {
			// The quality tier is an ordinary global set before the first
			// event, so every snapshot this session offloads carries it.
			err = mlapp.SetQuality(app, nn.PrecInt8)
		}
	}
	if err != nil {
		rep.failf("session %d (%s): build app: %v", idx, kind, err)
		return rep
	}
	off, err := client.NewOffloader(app, conn, opts)
	if err != nil {
		rep.failf("session %d (%s): offloader: %v", idx, kind, err)
		return rep
	}
	off.StartPreSend()
	// Pre-send may fail under injected faults; the offloader then ships
	// the model inline (or falls back locally), so the error is expected —
	// only the invariants below matter.
	_ = off.WaitForAcks() //nolint:errcheck

	// Invariant 1: every event ends with the locally-computed result.
	// Float32 sessions must be bit-identical to the local reference no
	// matter where the handler ran. Quantized sessions are held to the
	// int8 plan's calibrated error bound against the float32 reference —
	// within bound, not bit-identical: int8 may legitimately flip a
	// near-tie top-1, so the score vector is the checked artifact.
	for e := 0; e < soakEventsPerSession; e++ {
		imgSeed := uint64(e + 1)
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(soakImageVolume, imgSeed)); err != nil {
			rep.failf("session %d (%s) event %d: load: %v", idx, kind, e, err)
			return rep
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(20); err != nil {
			// With LocalFallback on, no fault may surface as an event
			// failure: the offloader must degrade to local execution.
			rep.failf("session %d (%s) event %d: run: %v", idx, kind, e, err)
			continue
		}
		if kind == kindQuant {
			if got := mlapp.Result(app); got == "" {
				rep.failf("session %d (%s) event %d: no result published", idx, kind, e)
				continue
			}
			sv, ok := app.Global(mlapp.GlobalScores)
			if !ok {
				rep.failf("session %d (%s) event %d: no scores published", idx, kind, e)
				continue
			}
			scores, ref := sv.(webapp.Float32Array), want.scores[imgSeed]
			if len(scores) != len(ref) {
				rep.failf("session %d (%s) event %d: %d scores, want %d", idx, kind, e, len(scores), len(ref))
				continue
			}
			for i, v := range scores {
				d := v - ref[i]
				if d < 0 {
					d = -d
				}
				if d > want.qBound {
					rep.failf("session %d (%s) event %d: int8 score[%d]=%g vs float32 %g: |d|=%g exceeds calibrated bound %g",
						idx, kind, e, i, v, ref[i], d, want.qBound)
					break
				}
			}
			continue
		}
		if got := mlapp.Result(app); got != want.text[imgSeed] {
			rep.failf("session %d (%s) event %d: result %q, want %q (bit-identical to local)",
				idx, kind, e, got, want.text[imgSeed])
		}
	}

	// Invariant 2: exactly one audit decision per offload-eligible event,
	// and the mix reconciles with the offloader's own counters.
	st := off.Stats()
	rep.offloads = st.Offloads
	if total := auditor.Total(); total != soakEventsPerSession {
		rep.failf("session %d (%s): %d audit decisions for %d offload-eligible events",
			idx, kind, total, soakEventsPerSession)
	}
	mix := make(map[obs.DecisionPath]int64)
	for _, pc := range auditor.Summary().Mix {
		mix[pc.Path] = pc.Count
	}
	if n := mix[obs.PathError]; n != 0 {
		rep.failf("session %d (%s): %d error-path decisions despite LocalFallback", idx, kind, n)
	}
	if got := mix[obs.PathFull] + mix[obs.PathPartial]; got != int64(st.Offloads) {
		rep.failf("session %d (%s): audit records %d offload decisions, stats say %d",
			idx, kind, got, st.Offloads)
	}
	if got := mix[obs.PathFallback]; got != int64(st.LocalFallbacks) {
		rep.failf("session %d (%s): audit records %d fallbacks, stats say %d",
			idx, kind, got, st.LocalFallbacks)
	}
	if idx%2 == 0 && kind != kindPartial {
		packedLeg(rep, fmt.Sprintf("session %d (%s)", idx, kind), conn, app, want)
	}
	return rep
}

// packedLeg is a soak session's round trip under the packed body encoding. An
// Offloader packs only what a slow link makes worth packing, which TinyNet's
// 5 KB body never is, so the leg goes through the raw Conn.OffloadSnapshot
// API, where the caller states the form: the full-offload app's state with a
// click pending, shipped packed, comes back — if the faults let anything come
// back — as the state local execution produces. It runs after the session's
// audited events and adds none.
func packedLeg(rep *sessionReport, who string, conn *client.Conn, app *webapp.App, want *soakRefs) {
	const imgSeed = 1
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(soakImageVolume, imgSeed)); err != nil {
		rep.failf("%s packed leg: load: %v", who, err)
		return
	}
	snap, err := snapshot.Capture(app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly,
		PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
	})
	if err != nil {
		rep.failf("%s packed leg: capture: %v", who, err)
		return
	}
	encoded, err := snap.Encode()
	if err != nil {
		rep.failf("%s packed leg: encode: %v", who, err)
		return
	}
	result, wire, err := conn.OffloadSnapshot(app.ID(), encoded, true)
	if err != nil {
		return // an injected fault, or a model the faults kept from arriving
	}
	if wire >= int64(len(encoded)) {
		rep.failf("%s packed leg: %d B of text travelled as %d B", who, len(encoded), wire)
	}
	res, err := snapshot.Decode(result)
	if err == nil {
		err = res.ApplyTo(app, snapshot.RestoreOptions{})
	}
	if err != nil {
		rep.failf("%s packed leg: a result that passed its checksum does not apply: %v", who, err)
		return
	}
	if got := mlapp.Result(app); got != want.text[imgSeed] {
		rep.failf("%s packed leg: result %q, want %q (bit-identical to local)", who, got, want.text[imgSeed])
	}
}

// TestChaosSoakInvariants is the end-to-end invariant soak: ≥200 sessions
// in short mode, each under a randomized (but seed-replayable) fault
// schedule, spread over two shared edge servers.
func TestChaosSoakInvariants(t *testing.T) {
	testutil.CheckGoroutines(t, 5*time.Second)
	// Each app and server session retains pooled execution scratch; the
	// allowance covers the soak's apps without masking an unbounded leak.
	testutil.CheckPoolBalance(t, 8192)

	sessions := 240
	if !testing.Short() {
		sessions = 400
	}
	base := soakBaseSeed()
	t.Logf("soak: %d sessions, base seed %d (override with SOAK_SEED)", sessions, base)

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, soakEventsPerSession)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	want := localExpected(t, model, seeds)

	srvA, addrA := soakServer(t)
	srvB, addrB := soakServer(t)
	addrs := []string{addrA, addrB}

	const workers = 8
	reports := make([]*sessionReport, sessions)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i] = runSoakSession(i, sessionKind(i%int(numKinds)),
					sessionSeed(base, i), addrs[i%len(addrs)], model, want)
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	var failures []string
	clientOffloads := int64(0)
	faulted := 0
	for _, rep := range reports {
		failures = append(failures, rep.failures...)
		clientOffloads += int64(rep.offloads)
		for _, p := range rep.plans {
			if len(p.Faults) > 0 || len(p.Phases) > 0 {
				faulted++
				break
			}
		}
	}
	const maxPrint = 20
	for i, f := range failures {
		if i == maxPrint {
			t.Errorf("... and %d more failures", len(failures)-maxPrint)
			break
		}
		t.Error(f)
	}

	// Sanity: the soak must actually have injected faults, or every
	// invariant passes vacuously.
	if faulted < sessions/2 {
		t.Errorf("only %d/%d sessions had fault plans; injector misconfigured", faulted, sessions)
	}

	// Invariant 4: servers never executed fewer sessions than clients saw
	// succeed (a response can be lost after execution, never the reverse).
	executed := int64(0)
	for _, srv := range []*edge.Server{srvA, srvB} {
		m := srv.Metrics()
		executed += m.SnapshotsExecuted
	}
	if executed < clientOffloads {
		t.Errorf("servers executed %d offloads, clients observed %d successes — results out of thin air",
			executed, clientOffloads)
	}
	t.Logf("soak: %d/%d sessions faulted, %d client-successful offloads, %d server executions",
		faulted, sessions, clientOffloads, executed)
}

// TestSoakSeedScheduleReplay pins the replay contract at the soak level:
// re-running a session's injector from its seed alone reproduces the
// identical fault schedule, connection by connection.
func TestSoakSeedScheduleReplay(t *testing.T) {
	testutil.LeakCheck(t)
	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := localExpected(t, model, []uint64{1, 2, 3})
	_, addr := soakServer(t)

	seed := sessionSeed(soakBaseSeed(), 7)
	a := runSoakSession(7, kindFull, seed, addr, model, want)
	b := runSoakSession(7, kindFull, seed, addr, model, want)
	if len(a.plans) == 0 || len(b.plans) == 0 {
		t.Fatal("sessions dialed no connections")
	}
	// Timing may change how many redials happen, but plan k is a pure
	// function of (seed, k): the shared prefix must match exactly.
	n := len(a.plans)
	if len(b.plans) < n {
		n = len(b.plans)
	}
	for i := 0; i < n; i++ {
		if a.plans[i].String() != b.plans[i].String() {
			t.Fatalf("plan %d diverged between replays of seed %d:\n  run A: %s\n  run B: %s",
				i, seed, a.plans[i], b.plans[i])
		}
	}
}

// TestSoakFailureMessagesCarrySeed pins that every invariant-violation
// message a session emits names its replay seed.
func TestSoakFailureMessagesCarrySeed(t *testing.T) {
	rep := &sessionReport{seed: 424242}
	rep.failf("synthetic failure %d", 1)
	if len(rep.failures) != 1 || !strings.Contains(rep.failures[0], "replay with seed 424242") {
		t.Fatalf("failure message %q lacks the replay seed", rep.failures)
	}
}
