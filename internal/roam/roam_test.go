package roam

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/chaos"
	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/testutil"
	"websnap/internal/webapp"
)

// fakeProbe returns scripted RTTs per address; a negative RTT means
// unreachable.
type fakeProbe struct {
	mu   sync.Mutex
	rtts map[string]time.Duration
}

func (f *fakeProbe) set(addr string, rtt time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rtts[addr] = rtt
}

func (f *fakeProbe) probe(addr string) (time.Duration, *protocol.LoadHint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rtt, ok := f.rtts[addr]
	if !ok || rtt < 0 {
		return 0, nil, errors.New("unreachable")
	}
	return rtt, nil, nil
}

// fakeDial returns a dialer whose conns talk to nobody: each is one end of
// a net.Pipe. Both ends close when the test ends, so the read loop each
// client.Conn starts sees EOF and exits instead of outliving the test.
func fakeDial(t *testing.T) func(addr string) (*client.Conn, error) {
	return func(addr string) (*client.Conn, error) {
		a, b := net.Pipe()
		t.Cleanup(func() {
			a.Close()
			b.Close()
		})
		return client.NewConn(a), nil
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoServers) {
		t.Errorf("err = %v, want ErrNoServers", err)
	}
	if _, err := New(Config{Servers: []string{"a", "a"}}); err == nil {
		t.Error("duplicate servers should fail")
	}
	if _, err := New(Config{Servers: []string{""}}); err == nil {
		t.Error("empty address should fail")
	}
}

func TestBestPicksLowestRTT(t *testing.T) {
	probe := &fakeProbe{rtts: map[string]time.Duration{
		"near": 2 * time.Millisecond,
		"far":  50 * time.Millisecond,
		"dead": -1,
	}}
	r, err := New(Config{
		Servers: []string{"far", "near", "dead"},
		Probe:   probe.probe,
		Dial:    fakeDial(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	infos := r.ProbeAll()
	if infos[0].Addr != "near" || !infos[0].Healthy {
		t.Errorf("sorted[0] = %+v, want near/healthy", infos[0])
	}
	if infos[len(infos)-1].Addr != "dead" || infos[len(infos)-1].Healthy {
		t.Errorf("sorted[last] = %+v, want dead/unhealthy", infos[len(infos)-1])
	}
	best, err := r.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Addr != "near" {
		t.Errorf("best = %s, want near", best.Addr)
	}
}

func TestBestAllDead(t *testing.T) {
	probe := &fakeProbe{rtts: map[string]time.Duration{"a": -1}}
	r, err := New(Config{Servers: []string{"a"}, Probe: probe.probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeAll()
	if _, err := r.Best(); !errors.Is(err, ErrNoReachable) {
		t.Errorf("err = %v, want ErrNoReachable", err)
	}
}

func TestEvaluateHysteresis(t *testing.T) {
	probe := &fakeProbe{rtts: map[string]time.Duration{
		"a": 10 * time.Millisecond,
		"b": 9 * time.Millisecond, // only 10% better: below the margin
	}}
	r, err := New(Config{
		Servers: []string{"a", "b"}, Probe: probe.probe, Dial: fakeDial(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Force current = a.
	r.ProbeAll()
	if _, err := r.SwitchTo("a"); err != nil {
		t.Fatal(err)
	}
	if _, switched, err := r.Evaluate(); err != nil || switched {
		t.Errorf("marginal candidate should not trigger a switch (switched=%v err=%v)", switched, err)
	}
	// Now b becomes clearly better.
	probe.set("b", 2*time.Millisecond)
	_, switched, err := r.Evaluate()
	if err != nil || !switched {
		t.Fatalf("clear winner should switch (switched=%v err=%v)", switched, err)
	}
	if addr, _ := r.Current(); addr != "b" {
		t.Errorf("current = %s, want b", addr)
	}
	// Current server dies: must switch back.
	probe.set("b", -1)
	_, switched, err = r.Evaluate()
	if err != nil || !switched {
		t.Fatalf("dead current should switch (switched=%v err=%v)", switched, err)
	}
	if addr, _ := r.Current(); addr != "a" {
		t.Errorf("current = %s, want a", addr)
	}
	r.mu.Lock()
	switches := r.switches
	r.mu.Unlock()
	if switches != 3 {
		t.Errorf("switches = %d, want 3", switches)
	}
}

// TestSwitchLogsDecision checks that server switches are recorded as
// structured JSON lines when a logger is configured.
func TestSwitchLogsDecision(t *testing.T) {
	var buf strings.Builder
	r, err := New(Config{
		Servers: []string{"a", "b"},
		Probe:   (&fakeProbe{rtts: map[string]time.Duration{"a": 1, "b": 2}}).probe,
		Dial:    fakeDial(t),
		Logger:  obs.NewLogger(&buf, slog.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeAll()
	if _, err := r.SwitchTo("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SwitchTo("b"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("switch log is not JSON: %v\n%s", err, lines[1])
	}
	if entry["from"] != "a" || entry["to"] != "b" || entry["switches"] != float64(2) {
		t.Errorf("switch log fields = %v", entry)
	}
}

func TestSwitchToUnknown(t *testing.T) {
	r, err := New(Config{Servers: []string{"a"}, Probe: (&fakeProbe{rtts: map[string]time.Duration{"a": 1}}).probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SwitchTo("nowhere"); err == nil {
		t.Error("unknown server should fail")
	}
}

// startEdge runs a real edge server for the integration test.
func startEdge(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	srv, err := core.NewEdgeServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

// TestRoamingOffload is the paper's mobility story end to end: offload to
// server A, A dies, the roamer moves to B, the offloader re-targets
// (re-pre-sending its model), and inference continues with identical
// results — no dependence on the previous server.
func TestRoamingOffload(t *testing.T) {
	addrA, shutdownA := startEdge(t)
	addrB, shutdownB := startEdge(t)
	defer shutdownB()

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"cat", "dog", "bird"}

	roamer, err := New(Config{Servers: []string{addrA, addrB}, Probe: func(addr string) (time.Duration, *protocol.LoadHint, error) {
		// Prefer A while it lives (deterministic choice).
		start := time.Now()
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.Close()
		rtt := time.Since(start)
		if addr == addrA {
			return rtt / 1000, nil, nil
		}
		return rtt + time.Second, nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := roamer.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer roamer.Close()
	if addr, _ := roamer.Current(); addr != addrA {
		t.Fatalf("connected to %s, want A=%s", addr, addrA)
	}

	app, err := mlapp.NewFullApp("roaming-app", "tiny", model, labels)
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

	runOnce := func(seed uint64) string {
		t.Helper()
		img := mlapp.SyntheticImage(3*16*16, seed)
		if err := mlapp.LoadImage(app, img); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(10); err != nil {
			t.Fatal(err)
		}
		return mlapp.Result(app)
	}
	first := runOnce(1)
	if first == "" {
		t.Fatal("no result on server A")
	}

	// Server A goes away (the client left its service area).
	shutdownA()
	newConn, switched, err := roamer.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate after A death: %v", err)
	}
	if !switched {
		t.Fatal("roamer should have switched to B")
	}
	if addr, _ := roamer.Current(); addr != addrB {
		t.Fatalf("current = %s, want B=%s", addr, addrB)
	}
	if err := off.Retarget(newConn); err != nil {
		t.Fatal(err)
	}
	if err := off.WaitForAcks(); err != nil {
		t.Fatalf("re-pre-send to B: %v", err)
	}
	second := runOnce(2)
	if second == "" {
		t.Fatal("no result on server B")
	}
	// Same input must give the same answer on either server.
	if again := runOnce(1); again != first {
		t.Errorf("server B result %q != server A result %q for identical input", again, first)
	}
	st := off.Stats()
	if st.Offloads != 3 {
		t.Errorf("offloads = %d, want 3", st.Offloads)
	}
}

// fakeLoadProbe scripts RTT and load hints per address.
type fakeLoadProbe struct {
	mu    sync.Mutex
	rtts  map[string]time.Duration
	loads map[string]*protocol.LoadHint
}

func (f *fakeLoadProbe) set(addr string, rtt time.Duration, load *protocol.LoadHint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rtts[addr] = rtt
	f.loads[addr] = load
}

func (f *fakeLoadProbe) probe(addr string) (time.Duration, *protocol.LoadHint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rtt, ok := f.rtts[addr]
	if !ok || rtt < 0 {
		return 0, nil, errors.New("unreachable")
	}
	return rtt, f.loads[addr], nil
}

func newLoadProbe() *fakeLoadProbe {
	return &fakeLoadProbe{
		rtts:  make(map[string]time.Duration),
		loads: make(map[string]*protocol.LoadHint),
	}
}

func TestBestPrefersLightlyLoaded(t *testing.T) {
	// "near" is closer but queues work for 100 ms; "far" is 10 ms away
	// and idle. Load-aware scoring must pick "far".
	probe := newLoadProbe()
	probe.set("near", 2*time.Millisecond, &protocol.LoadHint{QueueingMillis: 100})
	probe.set("far", 10*time.Millisecond, &protocol.LoadHint{})
	r, err := New(Config{Servers: []string{"near", "far"}, Probe: probe.probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeAll()
	best, err := r.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Addr != "far" {
		t.Errorf("best = %q (score %v), want far", best.Addr, best.Score)
	}
}

func TestSaturatedServerDeprioritized(t *testing.T) {
	probe := newLoadProbe()
	probe.set("sat", time.Millisecond, &protocol.LoadHint{Saturated: true})
	probe.set("ok", 30*time.Millisecond, &protocol.LoadHint{QueueingMillis: 1})
	r, err := New(Config{Servers: []string{"sat", "ok"}, Probe: probe.probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeAll()
	best, err := r.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Addr != "ok" {
		t.Errorf("best = %q, want the unsaturated server", best.Addr)
	}
	// Only the saturated server left: still usable (better than nothing).
	probe.set("ok", -1, nil)
	r.ProbeAll()
	best, err = r.Best()
	if err != nil || best.Addr != "sat" {
		t.Errorf("best = %q, %v; want sat", best.Addr, err)
	}
}

// TestPick is the selection rule on its own: saturated servers rank last,
// the lowest score (RTT plus advertised queueing) wins, an exact tie goes
// to the first server in the input, and an empty input picks nothing.
func TestPick(t *testing.T) {
	probed := func(addr string, rtt time.Duration, load *protocol.LoadHint) ServerInfo {
		return ServerInfo{Addr: addr, RTT: rtt, Load: load, Score: Score(rtt, load), Healthy: true}
	}
	saturated := &protocol.LoadHint{Saturated: true}
	for _, tc := range []struct {
		name    string
		servers []ServerInfo
		want    string // "" when nothing is picked
	}{
		{"empty", nil, ""},
		{"saturated_last", []ServerInfo{
			probed("a", 5*time.Millisecond, nil),
			probed("sat", time.Millisecond, saturated),
			probed("c", 9*time.Millisecond, &protocol.LoadHint{QueueingMillis: 40}),
		}, "a"},
		{"all_saturated_lowest_score", []ServerInfo{
			probed("a", 9*time.Millisecond, saturated),
			probed("b", 2*time.Millisecond, saturated),
		}, "b"},
		{"lowest_score_wins", []ServerInfo{
			probed("near-queued", 2*time.Millisecond, &protocol.LoadHint{QueueingMillis: 100}),
			probed("far-idle", 10*time.Millisecond, &protocol.LoadHint{}),
			probed("mid", 20*time.Millisecond, nil),
		}, "far-idle"},
		{"tie_first_in_input", []ServerInfo{
			probed("b", 4*time.Millisecond, &protocol.LoadHint{}),
			probed("a", 4*time.Millisecond, &protocol.LoadHint{}),
			probed("c", 4*time.Millisecond, nil),
		}, "b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := Pick(tc.servers)
			if ok != (tc.want != "") || got.Addr != tc.want {
				t.Errorf("Pick = %q, %v; want %q", got.Addr, ok, tc.want)
			}
		})
	}
}

func TestEvaluateLeavesSaturatedServer(t *testing.T) {
	probe := newLoadProbe()
	probe.set("a", time.Millisecond, nil)
	probe.set("b", 2*time.Millisecond, nil)
	r, err := New(Config{Servers: []string{"a", "b"}, Probe: probe.probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	if addr, _ := r.Current(); addr != "a" {
		t.Fatalf("connected to %q, want a", addr)
	}
	// "a" saturates; "b" is barely slower but idle. The margin rule would
	// keep "a", but saturation forces the switch.
	probe.set("a", time.Millisecond, &protocol.LoadHint{Saturated: true})
	_, switched, err := r.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !switched {
		t.Fatal("expected switch away from saturated server")
	}
	if addr, _ := r.Current(); addr != "b" {
		t.Errorf("current = %q, want b", addr)
	}
}

// TestStaleProbeExcluded is the regression test for stale-hint handling:
// a server whose probe has aged past hintStaleness used to keep competing
// on its (equally stale) RTT after only its load hint was dropped, letting
// a long-unprobed nearby server outrank a freshly probed one. Stale
// servers must be excluded outright while any fresh server exists, and
// selection must degrade to last-known-good only when every healthy server
// is stale.
func TestStaleProbeExcluded(t *testing.T) {
	probe := newLoadProbe()
	probe.set("staleFast", time.Millisecond, &protocol.LoadHint{})
	probe.set("fresh", 20*time.Millisecond, &protocol.LoadHint{})
	r, err := New(Config{Servers: []string{"staleFast", "fresh"}, Probe: probe.probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeAll()

	// Age one server's probe past the staleness window.
	r.mu.Lock()
	r.servers["staleFast"].LastProbe = r.cfg.Now().Add(-hintStaleness - time.Second)
	r.mu.Unlock()
	best, err := r.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Addr != "fresh" {
		t.Errorf("best = %q, want the freshly probed server (stale probe must not compete on old RTT)", best.Addr)
	}

	// Every healthy server stale: degrade to last-known-good (RTT alone)
	// instead of reporting the fleet unreachable.
	r.mu.Lock()
	r.servers["fresh"].LastProbe = r.cfg.Now().Add(-hintStaleness - time.Second)
	r.mu.Unlock()
	best, err = r.Best()
	if err != nil {
		t.Fatalf("all-stale fleet should fall back to last-known-good, got %v", err)
	}
	if best.Addr != "staleFast" {
		t.Errorf("last-known-good best = %q, want the lowest-RTT server", best.Addr)
	}
	if best.Load != nil {
		t.Error("last-known-good view should carry no stale load hint")
	}
}

// TestFleetViewMembership covers the dynamic candidate source: membership
// follows the fleet view across refreshes, the current server survives
// being dropped from the view, and a view outage degrades to the previous
// membership with the source recorded for audit.
func TestFleetViewMembership(t *testing.T) {
	probe := &fakeProbe{rtts: map[string]time.Duration{
		"a": time.Millisecond,
		"b": 2 * time.Millisecond,
		"c": 3 * time.Millisecond,
	}}
	var mu sync.Mutex
	addrs := []string{"a", "b"}
	var viewErr error
	view := func() ([]string, error) {
		mu.Lock()
		defer mu.Unlock()
		if viewErr != nil {
			return nil, viewErr
		}
		return append([]string(nil), addrs...), nil
	}
	var logBuf strings.Builder
	r, err := New(Config{
		FleetView: view,
		Probe:     probe.probe,
		Dial:      fakeDial(t),
		Logger:    obs.NewLogger(&logBuf, slog.LevelInfo),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if addr, _ := r.Current(); addr != "a" {
		t.Fatalf("connected to %q, want a", addr)
	}
	if src := viewSource(r); src != "registry" {
		t.Errorf("view source = %q, want registry", src)
	}
	if !strings.Contains(logBuf.String(), `"view":"registry"`) {
		t.Errorf("switch log should audit the view source:\n%s", logBuf.String())
	}

	// The view drops the current server and adds a new one: the candidate
	// set follows, but the live connection's server stays a candidate.
	mu.Lock()
	addrs = []string{"c", "b"}
	mu.Unlock()
	infos := r.ProbeAll()
	got := make(map[string]bool, len(infos))
	for _, info := range infos {
		got[info.Addr] = true
	}
	if !got["a"] || !got["b"] || !got["c"] {
		t.Fatalf("candidates after refresh = %v, want a (current), b, c", got)
	}
	best, err := r.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Addr != "a" {
		t.Errorf("best = %q, want the retained current server (lowest RTT)", best.Addr)
	}

	// Registry outage: membership freezes at last-known-good and the
	// degraded source is recorded.
	mu.Lock()
	viewErr = errors.New("registry unreachable")
	mu.Unlock()
	infos = r.ProbeAll()
	if len(infos) != 3 {
		t.Errorf("candidates during outage = %d, want 3 (last-known-good)", len(infos))
	}
	if src := viewSource(r); src != "last-known-good" {
		t.Errorf("view source during outage = %q, want last-known-good", src)
	}
}

// TestNewFleetViewOnly checks that a dynamic view stands in for a static
// server list at construction time.
func TestNewFleetViewOnly(t *testing.T) {
	if _, err := New(Config{FleetView: func() ([]string, error) { return nil, nil }}); err != nil {
		t.Errorf("New with FleetView and no static servers: %v", err)
	}
}

func TestPingProbeAgainstRealServer(t *testing.T) {
	srv, err := core.NewEdgeServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	rtt, load, err := PingProbe(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
	if load == nil {
		t.Fatal("no load hint from real server")
	}
	if load.Workers <= 0 {
		t.Errorf("load = %+v, want positive worker count", load)
	}
}

// startEdgeSrv is startEdge with the server handle exposed, so tests can
// read its execution counters.
func startEdgeSrv(t *testing.T) (*edge.Server, string, func()) {
	t.Helper()
	srv, err := core.NewEdgeServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	return srv, ln.Addr().String(), func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}
}

// TestMidHandoffConnectionLoss is the mobility scenario under fire: the
// client hands off from server A to server B, and the very first
// connection to B dies mid-frame (a scripted chaos reset inside the model
// re-pre-send). The invariants under that loss:
//
//   - every offload-eligible event executes on exactly one server — the
//     truncated frame must not execute on B and again on the redialed conn;
//   - the offloader records exactly one terminal audit decision per event;
//   - results stay bit-identical across the handoff for identical input.
//
// This is the paper's statelessness claim at its sharpest: the interrupted
// handoff needs no recovery protocol because the next snapshot carries
// everything the new server lacks.
func TestMidHandoffConnectionLoss(t *testing.T) {
	testutil.LeakCheck(t)
	srvA, addrA, shutdownA := startEdgeSrv(t)
	srvB, addrB, shutdownB := startEdgeSrv(t)
	defer shutdownB()
	defer shutdownA()

	// The first connection to B resets 64 bytes into the write stream —
	// inside the first frame of the handoff's model re-pre-send, the offer
	// of the model's key. Redials are clean.
	var bDials atomic.Int32
	dial := func(addr string) (*client.Conn, error) {
		return client.DialWrapped(addr, func(c net.Conn) net.Conn {
			if addr == addrB && bDials.Add(1) == 1 {
				return chaos.NewConn(c, chaos.Plan{Faults: []chaos.Fault{
					{Kind: chaos.FaultReset, Dir: chaos.DirWrite, Offset: 64},
				}})
			}
			return c
		})
	}
	roamer, err := New(Config{
		Servers: []string{addrA, addrB},
		Dial:    dial,
		Probe: func(addr string) (time.Duration, *protocol.LoadHint, error) {
			start := time.Now()
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return 0, nil, err
			}
			c.Close()
			rtt := time.Since(start)
			if addr == addrA {
				return rtt / 1000, nil, nil
			}
			return rtt + time.Second, nil, nil
		},
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
		t.Fatalf("connected to %s, want A=%s", addr, addrA)
	}

	model, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	app, err := mlapp.NewFullApp("handoff-app", "tiny", model, []string{"cat", "dog", "bird"})
	if err != nil {
		t.Fatal(err)
	}
	auditor := obs.NewAuditor(obs.AuditorOptions{})
	off, err := client.NewOffloader(app, conn, client.Options{
		OffloadEventTypes: []string{mlapp.EventClick},
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
	first := runOnce(1)
	if first == "" {
		t.Fatal("no result on server A")
	}

	// The client leaves A's service area mid-session.
	shutdownA()
	newConn, switched, err := roamer.Evaluate()
	if err != nil {
		t.Fatalf("Evaluate after A death: %v", err)
	}
	if !switched {
		t.Fatal("roamer should have switched to B")
	}
	// Retarget restarts the pre-send, which dies on the chaotic conn: the
	// handoff's model transfer is the frame the reset lands in.
	if err := off.Retarget(newConn); err != nil {
		t.Fatal(err)
	}
	if err := off.WaitForAcks(); err == nil {
		t.Fatal("pre-send over the resetting conn should have failed")
	}
	if m := srvB.Metrics(); m.ModelsStored != 0 || m.SnapshotsExecuted != 0 {
		t.Fatalf("B acted on a truncated frame: %+v", m)
	}

	// The first event after the loss rides the still-broken conn: its
	// inline model send fails fast, the offloader repairs the conn for
	// next time and finishes this event locally — executed exactly once,
	// by no server.
	if fb := runOnce(1); fb != first {
		t.Errorf("local fallback result = %q, want %q", fb, first)
	}
	st := off.Stats()
	if st.LocalFallbacks != 1 || st.Redials != 1 {
		t.Errorf("stats after fallback = %+v, want 1 fallback / 1 redial", st)
	}
	if m := srvB.Metrics(); m.SnapshotsExecuted != 0 {
		t.Fatalf("B executed the fallback event too: %+v", m)
	}

	// The next event runs on the repaired conn, carrying the model inline:
	// it must run on B exactly once, with the same answer A gave for the
	// same input.
	if again := runOnce(1); again != first {
		t.Errorf("result after interrupted handoff = %q, want %q", again, first)
	}
	if bDials.Load() < 2 {
		t.Errorf("B dial count = %d, want >= 2 (chaotic dial + clean redial)", bDials.Load())
	}

	mA, mB := srvA.Metrics(), srvB.Metrics()
	if mA.SnapshotsExecuted != 1 {
		t.Errorf("A executed %d snapshots, want 1", mA.SnapshotsExecuted)
	}
	if mB.SnapshotsExecuted != 1 {
		t.Errorf("B executed %d snapshots, want 1 (exactly-once after handoff)", mB.SnapshotsExecuted)
	}
	if mB.ModelsStored != 1 {
		t.Errorf("B stored %d models, want 1 (the inline re-send)", mB.ModelsStored)
	}

	// One terminal audit decision per offload-eligible event: full on A,
	// fallback for the event the loss consumed, full on B. The interrupted
	// pre-send is connection maintenance, not a decision.
	if got := auditor.Total(); got != 3 {
		t.Errorf("audit decisions = %d, want 3", got)
	}
	for _, pc := range auditor.Summary().Mix {
		switch pc.Path {
		case obs.PathFull:
			if pc.Count != 2 {
				t.Errorf("full-path decisions = %d, want 2", pc.Count)
			}
		case obs.PathFallback:
			if pc.Count != 1 {
				t.Errorf("fallback decisions = %d, want 1", pc.Count)
			}
		default:
			if pc.Count != 0 {
				t.Errorf("unexpected %s decisions: %d", pc.Path, pc.Count)
			}
		}
	}
}

// viewSource reads where r's current candidate membership came from.
func viewSource(r *Roamer) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewSource
}
