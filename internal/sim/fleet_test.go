package sim

import (
	"reflect"
	"testing"
	"time"

	"websnap/internal/fleet"
	"websnap/internal/obs"
)

func fleetPoints(t *testing.T, serverCounts []int, clients int, policies []fleet.Policy, cfg FleetConfig) []FleetPoint {
	t.Helper()
	pts, err := FleetSweep("googlenet", serverCounts, clients, policies, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestFleetSweepValidation(t *testing.T) {
	pols := []fleet.Policy{fleet.PolicyHash}
	if _, err := FleetSweep("googlenet", nil, 8, pols, FleetConfig{}); err == nil {
		t.Error("empty server-count list should fail")
	}
	if _, err := FleetSweep("googlenet", []int{0}, 8, pols, FleetConfig{}); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := FleetSweep("googlenet", []int{2}, 0, pols, FleetConfig{}); err == nil {
		t.Error("zero clients should fail")
	}
	if _, err := FleetSweep("googlenet", []int{2}, 8, nil, FleetConfig{}); err == nil {
		t.Error("empty policy list should fail")
	}
	if _, err := FleetSweep("no-such-model", []int{2}, 8, pols, FleetConfig{}); err == nil {
		t.Error("unknown model should fail")
	}
	// A server without workers admits requests it can never dispatch.
	for _, caps := range [][]int{{2, 0}, {-1}} {
		if _, err := FleetSweep("googlenet", []int{2}, 8, pols, FleetConfig{Capacities: caps}); err == nil {
			t.Errorf("capacities %v should fail", caps)
		}
	}
}

func TestFleetSweepDeterministic(t *testing.T) {
	cfg := FleetConfig{RequestsPerClient: 4, RoamEvery: 2}
	a := fleetPoints(t, []int{3}, 32, []fleet.Policy{fleet.PolicyLoadWeighted}, cfg)
	b := fleetPoints(t, []int{3}, 32, []fleet.Policy{fleet.PolicyLoadWeighted}, cfg)
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
	for _, p := range []fleet.Policy{fleet.PolicyHash, fleet.PolicyLoadWeighted} {
		pt := fleetPoints(t, []int{4}, clients, []fleet.Policy{p}, cfg)[0]
		if got, want := pt.Completed, clients*reqs; got != want {
			t.Errorf("%s: completed = %d, want %d", p, got, want)
		}
		executed := 0
		for _, n := range pt.ExecPerServer {
			executed += n
		}
		if executed+pt.Fallbacks != pt.Completed {
			t.Errorf("%s: executed %d + fallbacks %d != completed %d",
				p, executed, pt.Fallbacks, pt.Completed)
		}
		var mixTotal int64
		for _, pc := range pt.Mix {
			mixTotal += pc.Count
			if pc.Path != obs.PathFull && pc.Path != obs.PathFallback {
				t.Errorf("%s: unexpected decision path %q in mix", p, pc.Path)
			}
		}
		if mixTotal != int64(pt.Completed) {
			t.Errorf("%s: audit decisions = %d, want %d (exactly one per inference)",
				p, mixTotal, pt.Completed)
		}
	}
}

// TestFleetReuploadAccounting: with the content-addressed blob index the
// whole fleet needs exactly one wireless model upload, and every later
// (session, server) encounter is bytes saved.
func TestFleetReuploadAccounting(t *testing.T) {
	pt := fleetPoints(t, []int{4}, 32, []fleet.Policy{fleet.PolicyHash},
		FleetConfig{RequestsPerClient: 6, RoamEvery: 2})[0]
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
// more than one server the re-fetches ride the backhaul, not the client
// uplink.
func TestFleetBoundedStoreEviction(t *testing.T) {
	const clients, reqs = 32, 6
	cfg := FleetConfig{RequestsPerClient: reqs, RoamEvery: 2, StoreEvictEvery: 10}
	pt := fleetPoints(t, []int{4}, clients, []fleet.Policy{fleet.PolicyHash}, cfg)[0]
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
	// Four servers with staggered eviction counters never go blob-empty
	// simultaneously here, so the client pays the wireless upload once.
	if pt.ClientModelUploadBytes != modelBytes {
		t.Errorf("client uploads = %d bytes, want one model (%d); re-fetches should ride the backhaul",
			pt.ClientModelUploadBytes, modelBytes)
	}

	// The unbounded-store control: same fleet, no evictions, no refetches.
	cfg.StoreEvictEvery = 0
	base := fleetPoints(t, []int{4}, clients, []fleet.Policy{fleet.PolicyHash}, cfg)[0]
	if base.StoreEvictions != 0 || base.EvictionRefetchBytes != 0 {
		t.Errorf("unbounded control recorded evictions: %d / %d bytes",
			base.StoreEvictions, base.EvictionRefetchBytes)
	}
}

// TestFleetLoadPolicySpreadsByCapacity: on a heterogeneous fleet the
// load-weighted policy sends more sessions to bigger servers, while pure
// consistent hashing is capacity-blind. Compare how much work the
// 1-worker runts absorb under each policy.
func TestFleetLoadPolicySpreadsByCapacity(t *testing.T) {
	cfg := FleetConfig{RequestsPerClient: 4, Capacities: []int{4, 1}}
	runtShare := func(p fleet.Policy) float64 {
		pt := fleetPoints(t, []int{4}, 64, []fleet.Policy{p}, cfg)[0]
		runt, total := 0, 0
		for i, n := range pt.ExecPerServer {
			total += n
			if cfg.Capacities[i%len(cfg.Capacities)] == 1 {
				runt += n
			}
		}
		if total == 0 {
			t.Fatalf("%s: no executions", p)
		}
		return float64(runt) / float64(total)
	}
	hash, load := runtShare(fleet.PolicyHash), runtShare(fleet.PolicyLoadWeighted)
	if load >= hash {
		t.Errorf("1-worker servers absorbed %.2f of work under load policy, %.2f under hash; load-weighted placement should shift work to big servers",
			load, hash)
	}
}

// TestFleetSweepSLO scores the same run against a tight and a loose
// latency objective: the tight one must register bad events on the real
// burn-rate engine (driven by the simulated clock), the loose one must
// stay clean, and SLO scoring must not perturb the simulation itself.
func TestFleetSweepSLO(t *testing.T) {
	pols := []fleet.Policy{fleet.PolicyLoadWeighted}
	base := FleetConfig{RequestsPerClient: 4, RoamEvery: 2}

	tight := base
	tight.SLOObjective = time.Microsecond // every inference blows this
	pt := fleetPoints(t, []int{3}, 32, pols, tight)[0]
	if pt.SLOBad != uint64(pt.Completed) {
		t.Errorf("tight objective: SLOBad = %d, want every completion (%d)", pt.SLOBad, pt.Completed)
	}
	if pt.SLOBurns == 0 {
		t.Error("tight objective: expected at least one burn transition")
	}

	loose := base
	loose.SLOObjective = time.Hour
	pt = fleetPoints(t, []int{3}, 32, pols, loose)[0]
	if pt.SLOBad != 0 || pt.SLOBurns != 0 || pt.SLOLongBurn != 0 {
		t.Errorf("loose objective: SLO fields = %d/%d/%v, want all zero",
			pt.SLOBad, pt.SLOBurns, pt.SLOLongBurn)
	}

	// SLO scoring is observation only: the run's latency outcomes are
	// byte-identical with and without it.
	unscored := fleetPoints(t, []int{3}, 32, pols, base)[0]
	scored := pt
	scored.SLOBad, scored.SLOBurns, scored.SLOLongBurn = 0, 0, 0
	if !reflect.DeepEqual(scored, unscored) {
		t.Errorf("SLO scoring perturbed the simulation:\n%+v\nvs\n%+v", scored, unscored)
	}

	if _, err := FleetSweep("googlenet", []int{2}, 8, pols, FleetConfig{SLOGoal: 2}); err == nil {
		t.Error("out-of-range SLOGoal should fail")
	}
	if _, err := FleetSweep("googlenet", []int{2}, 8, pols, FleetConfig{SLOGoal: 0.9}); err == nil {
		t.Error("SLOGoal without SLOObjective should fail")
	}
}
