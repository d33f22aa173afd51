package sim

import (
	"reflect"
	"testing"
	"time"

	"websnap/internal/obs"
)

func fleetPoints(t *testing.T, serverCounts []int, clients int, cfg FleetConfig) []FleetPoint {
	t.Helper()
	pts, err := FleetSweep("googlenet", serverCounts, clients, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestFleetSweepValidation(t *testing.T) {
	if _, err := FleetSweep("googlenet", nil, 8, FleetConfig{}); err == nil {
		t.Error("empty server-count list should fail")
	}
	if _, err := FleetSweep("googlenet", []int{0}, 8, FleetConfig{}); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := FleetSweep("googlenet", []int{2}, 0, FleetConfig{}); err == nil {
		t.Error("zero clients should fail")
	}
	if _, err := FleetSweep("no-such-model", []int{2}, 8, FleetConfig{}); err == nil {
		t.Error("unknown model should fail")
	}
	// A server without workers admits requests it can never dispatch.
	for _, caps := range [][]int{{2, 0}, {-1}} {
		if _, err := FleetSweep("googlenet", []int{2}, 8, FleetConfig{Capacities: caps}); err == nil {
			t.Errorf("capacities %v should fail", caps)
		}
	}
}

func TestFleetSweepDeterministic(t *testing.T) {
	cfg := FleetConfig{RequestsPerClient: 4, RoamEvery: 2}
	a := fleetPoints(t, []int{3}, 32, cfg)
	b := fleetPoints(t, []int{3}, 32, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("simulation not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFleetAllRequestsComplete: every inference finishes exactly once —
// offloaded or fallback, never lost, never duplicated — and the per-server
// execution counts reconcile with the total.
func TestFleetAllRequestsComplete(t *testing.T) {
	const clients, reqs = 48, 5
	cfg := FleetConfig{RequestsPerClient: reqs, RoamEvery: 2}
	pt := fleetPoints(t, []int{4}, clients, cfg)[0]
	if got, want := pt.Completed, clients*reqs; got != want {
		t.Errorf("completed = %d, want %d", got, want)
	}
	executed := 0
	for _, n := range pt.ExecPerServer {
		executed += n
	}
	if executed+pt.Fallbacks != pt.Completed {
		t.Errorf("executed %d + fallbacks %d != completed %d", executed, pt.Fallbacks, pt.Completed)
	}
	var mixTotal int64
	for _, pc := range pt.Mix {
		mixTotal += pc.Count
		if pc.Path != obs.PathFull && pc.Path != obs.PathFallback {
			t.Errorf("unexpected decision path %q in mix", pc.Path)
		}
	}
	if mixTotal != int64(pt.Completed) {
		t.Errorf("audit decisions = %d, want %d (exactly one per inference)", mixTotal, pt.Completed)
	}
}

// TestFleetReuploadAccounting: with the content-addressed blob index the
// whole fleet needs exactly one wireless model upload, and every later
// (session, server) encounter is bytes saved.
func TestFleetReuploadAccounting(t *testing.T) {
	pt := fleetPoints(t, []int{4}, 32, FleetConfig{RequestsPerClient: 6, RoamEvery: 2})[0]
	sc, err := NewScenario("googlenet")
	if err != nil {
		t.Fatal(err)
	}
	modelBytes := sc.ModelUploadBytes()
	if pt.ClientModelUploadBytes != modelBytes {
		t.Errorf("client model upload = %d bytes, want exactly one upload of %d",
			pt.ClientModelUploadBytes, modelBytes)
	}
	if pt.Handoffs == 0 {
		t.Fatal("no handoffs; the roaming path was never exercised")
	}
	// 32 sessions each meet at least their first server; every encounter
	// after the very first upload is saved wireless bytes.
	if pt.ReuploadBytesSaved < int64(31)*modelBytes {
		t.Errorf("re-upload bytes saved = %d, want >= %d (31 first encounters alone)",
			pt.ReuploadBytesSaved, int64(31)*modelBytes)
	}
	if pt.ReuploadBytesSaved%modelBytes != 0 {
		t.Errorf("saved bytes %d not a multiple of the model size %d",
			pt.ReuploadBytesSaved, modelBytes)
	}
	// Peer fetches cover at most one copy per remaining server.
	if pt.PeerFetchBytes > int64(3)*modelBytes {
		t.Errorf("peer fetch bytes = %d, want <= %d (3 servers fetch once each)",
			pt.PeerFetchBytes, int64(3)*modelBytes)
	}
}

// TestFleetBoundedStoreEviction: with StoreEvictEvery modeling a
// byte-capped session store, cap pressure evicts model blobs and forces
// re-resolution traffic — yet every inference still completes, and with
// more than one server most re-fetches ride the backhaul, not the client
// uplink.
func TestFleetBoundedStoreEviction(t *testing.T) {
	const clients, reqs = 32, 6
	cfg := FleetConfig{RequestsPerClient: reqs, RoamEvery: 2, StoreEvictEvery: 10}
	pt := fleetPoints(t, []int{4}, clients, cfg)[0]
	if pt.Completed != clients*reqs {
		t.Errorf("completed = %d, want %d; eviction must not lose requests", pt.Completed, clients*reqs)
	}
	if pt.StoreEvictions == 0 {
		t.Fatal("no evictions with StoreEvictEvery=10 over 192 requests; the bounded store never bit")
	}
	if pt.EvictionRefetchBytes == 0 {
		t.Error("evictions happened but forced no re-fetch traffic")
	}
	sc, err := NewScenario("googlenet")
	if err != nil {
		t.Fatal(err)
	}
	modelBytes := sc.ModelUploadBytes()
	if pt.EvictionRefetchBytes%modelBytes != 0 {
		t.Errorf("refetch bytes %d not a multiple of the model size %d",
			pt.EvictionRefetchBytes, modelBytes)
	}
	// A client re-uploads only once every server has dropped the blob. The
	// probe score herds sessions onto the first servers, so that happens
	// here, but a peer still holds the blob for most re-fetches.
	if reup := pt.ClientModelUploadBytes - modelBytes; reup < 0 || reup >= pt.EvictionRefetchBytes {
		t.Errorf("client uploads = %d bytes against %d of eviction re-fetches; after the first upload (%d) most re-fetches should ride the backhaul",
			pt.ClientModelUploadBytes, pt.EvictionRefetchBytes, modelBytes)
	}

	// The unbounded-store control: same fleet, no evictions, no refetches.
	cfg.StoreEvictEvery = 0
	base := fleetPoints(t, []int{4}, clients, cfg)[0]
	if base.StoreEvictions != 0 || base.EvictionRefetchBytes != 0 {
		t.Errorf("unbounded control recorded evictions: %d / %d bytes",
			base.StoreEvictions, base.EvictionRefetchBytes)
	}
}

// TestFleetSpreadsByCapacity: on a heterogeneous fleet ({4, 1} workers
// cycling) the probe score sends a session away from a server whose
// workers are all busy, so the 1-worker servers, half the members, absorb
// less than half the work.
func TestFleetSpreadsByCapacity(t *testing.T) {
	cfg := FleetConfig{RequestsPerClient: 4, Capacities: []int{4, 1}}
	pt := fleetPoints(t, []int{4}, 64, cfg)[0]
	runt, total := 0, 0
	for i, n := range pt.ExecPerServer {
		total += n
		if cfg.Capacities[i%len(cfg.Capacities)] == 1 {
			runt += n
		}
	}
	if total == 0 {
		t.Fatal("no executions")
	}
	if share := float64(runt) / float64(total); share >= 0.5 {
		t.Errorf("1-worker servers absorbed %.2f of work (exec per server %v), want less than their member share 0.50",
			share, pt.ExecPerServer)
	}
}

// TestFleetIdleSessionsHerd pins what the live roamer does on an idle fleet
// where every server is the same round trip away: every score ties, so
// every session lands on the first server while it has a worker free.
func TestFleetIdleSessionsHerd(t *testing.T) {
	// Two sessions never occupy more than two of the first server's four
	// workers, so its advertised queueing delay stays zero.
	pts := fleetPoints(t, []int{2, 4, 8}, 2, FleetConfig{Capacities: []int{4}})
	for _, pt := range pts {
		want := make([]int, pt.Servers)
		want[0] = pt.Completed
		if !reflect.DeepEqual(pt.ExecPerServer, want) {
			t.Errorf("%d servers: exec per server %v, want %v", pt.Servers, pt.ExecPerServer, want)
		}
	}
}

// TestFleetSweepSLO scores the same run against a tight and a loose
// latency objective: the tight one must register bad events on the real
// burn-rate engine (driven by the simulated clock), the loose one must
// stay clean, and SLO scoring must not perturb the simulation itself.
func TestFleetSweepSLO(t *testing.T) {
	base := FleetConfig{RequestsPerClient: 4, RoamEvery: 2}

	tight := base
	tight.SLOObjective = time.Microsecond // every inference blows this
	pt := fleetPoints(t, []int{3}, 32, tight)[0]
	if pt.SLOBad != uint64(pt.Completed) {
		t.Errorf("tight objective: SLOBad = %d, want every completion (%d)", pt.SLOBad, pt.Completed)
	}
	if pt.SLOBurns == 0 {
		t.Error("tight objective: expected at least one burn transition")
	}

	loose := base
	loose.SLOObjective = time.Hour
	pt = fleetPoints(t, []int{3}, 32, loose)[0]
	if pt.SLOBad != 0 || pt.SLOBurns != 0 || pt.SLOLongBurn != 0 {
		t.Errorf("loose objective: SLO fields = %d/%d/%v, want all zero",
			pt.SLOBad, pt.SLOBurns, pt.SLOLongBurn)
	}

	// SLO scoring is observation only: the run's latency outcomes are
	// byte-identical with and without it.
	unscored := fleetPoints(t, []int{3}, 32, base)[0]
	scored := pt
	scored.SLOBad, scored.SLOBurns, scored.SLOLongBurn = 0, 0, 0
	if !reflect.DeepEqual(scored, unscored) {
		t.Errorf("SLO scoring perturbed the simulation:\n%+v\nvs\n%+v", scored, unscored)
	}

	if _, err := FleetSweep("googlenet", []int{2}, 8, FleetConfig{SLOGoal: 2}); err == nil {
		t.Error("out-of-range SLOGoal should fail")
	}
	if _, err := FleetSweep("googlenet", []int{2}, 8, FleetConfig{SLOGoal: 0.9}); err == nil {
		t.Error("SLOGoal without SLOObjective should fail")
	}
}
