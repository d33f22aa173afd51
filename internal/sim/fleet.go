package sim

import (
	"fmt"
	"slices"
	"time"

	"websnap/internal/obs"
	"websnap/internal/roam"
	"websnap/internal/sched"
	"websnap/internal/telemetry"
)

// FleetConfig parameterizes the fleet sweep: many heterogeneous edge
// servers, thousands of closed-loop full-offload clients, and the live
// roamer's rule (roam.Pick) deciding which server each session lands on.
type FleetConfig struct {
	// RequestsPerClient is how many closed-loop inferences each client
	// session performs.
	RequestsPerClient int
	// RoamEvery forces a handoff after this many requests: the client
	// leaves its current server's coverage and roam.Pick re-places the
	// session among the remaining members. 0 disables roaming.
	RoamEvery int
	// Capacities cycles worker counts across the fleet, making it
	// heterogeneous (e.g. {2, 1, 4}: server 0 has 2 workers, server 1
	// has 1, server 2 has 4, server 3 has 2 again, ...).
	Capacities []int
	// StoreEvictEvery models a byte-capped session store: after this many
	// completed executions, cap pressure on a server evicts its model
	// blob, and the next request it serves must re-resolve the model —
	// a peer backhaul fetch while any fleet member still holds the blob,
	// a client re-upload otherwise. 0 models unbounded stores.
	StoreEvictEvery int
	// SLOObjective, when positive, scores every completed inference
	// against a client-observed latency objective using the real
	// telemetry.SLO burn-rate engine driven by the simulated clock
	// (5 s / 60 s windows in simulated time), so the fleet's tail behavior
	// shows up as the same burn alerts production would raise. 0 disables
	// SLO scoring.
	SLOObjective time.Duration
	// SLOGoal is the good-event ratio target for SLOObjective (0 = the
	// engine default, 0.99).
	SLOGoal float64
}

// Fixed parameters of the fleet model.
const (
	// fleetQueueDepth is each server's admission queue capacity; arrivals
	// beyond it are rejected and the client falls back to full local
	// execution.
	fleetQueueDepth = 16
	// fleetBackhaulFactor is how much faster the wired server-to-server
	// link is than the client's wireless uplink. Peer blob fetches (a
	// server pulling a model it lacks from the fleet member that holds it)
	// ride the backhaul instead of the client link.
	fleetBackhaulFactor = 10
	// fleetThinkFactor scales the per-request service time to the upper
	// bound of each client's uniform think time. Fleet clients are
	// interactive web apps that infer occasionally, not hot loops; 100x
	// puts a thousand-session fleet near its saturation knee at the top of
	// the default server-count sweep.
	fleetThinkFactor = 100
)

func (c FleetConfig) withDefaults() FleetConfig {
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 6
	}
	if c.RoamEvery < 0 {
		c.RoamEvery = 0
	}
	if len(c.Capacities) == 0 {
		c.Capacities = []int{2, 1, 4}
	}
	return c
}

// FleetPoint is one fleet size's outcome.
type FleetPoint struct {
	// Servers is the fleet size; Clients the closed-loop session count.
	Servers int `json:"servers"`
	Clients int `json:"clients"`
	// Completed counts finished inferences (offloaded + local fallback);
	// Fallbacks the subset a saturated server rejected; Handoffs the
	// mid-session placements forced by roaming.
	Completed int `json:"completed"`
	Fallbacks int `json:"fallbacks"`
	Handoffs  int `json:"handoffs"`
	// Throughput is completed inferences per simulated second across the
	// whole fleet.
	Throughput float64 `json:"throughputPerSec"`
	// P50/P95/P99 are client-observed latency percentiles in
	// milliseconds, measured from the user event to the result on screen.
	P50Millis float64 `json:"p50Millis"`
	P95Millis float64 `json:"p95Millis"`
	P99Millis float64 `json:"p99Millis"`
	// Mix is the decision mix (full offloads vs overload fallbacks) in
	// the client audit vocabulary.
	Mix []obs.PathCount `json:"mix"`
	// ExecPerServer is each server's completed-execution count, in server
	// order — the placement spread. The probe score sees queueing, not
	// capacity: on an idle fleet every session lands on the first server
	// until all its workers are busy.
	ExecPerServer []int `json:"execPerServer"`
	// ClientModelUploadBytes is what clients actually shipped over the
	// wireless link to seed models. With content-addressed sharing the
	// whole fleet needs exactly one client upload per distinct model.
	ClientModelUploadBytes int64 `json:"clientModelUploadBytes"`
	// ReuploadBytesSaved is the wireless bytes the blob index avoided:
	// every (session, new server) pair that would have re-uploaded the
	// model without sharing, resolved instead by reference.
	ReuploadBytesSaved int64 `json:"reuploadBytesSaved"`
	// PeerFetchBytes is backhaul traffic spent pulling blobs between
	// servers — the wired cost that buys the wireless savings.
	PeerFetchBytes int64 `json:"peerFetchBytes"`
	// StoreEvictions counts model blobs dropped by bounded-store cap
	// pressure (FleetConfig.StoreEvictEvery); EvictionRefetchBytes is the
	// transfer the evictions forced — backhaul re-fetches plus any client
	// re-uploads when no fleet member still held the blob.
	StoreEvictions       int   `json:"storeEvictions,omitempty"`
	EvictionRefetchBytes int64 `json:"evictionRefetchBytes,omitempty"`
	// SLOBad counts completed inferences slower than
	// FleetConfig.SLOObjective; SLOBurns counts transitions into the
	// burning state (both burn windows over threshold) during the run;
	// SLOLongBurn is the long-window burn rate at the end of the run.
	// All zero when SLO scoring is disabled.
	SLOBad      uint64  `json:"sloBad,omitempty"`
	SLOBurns    int     `json:"sloBurns,omitempty"`
	SLOLongBurn float64 `json:"sloLongBurn,omitempty"`
}

// FallbackRate is the fraction of inferences that fell back to local
// execution.
func (p FleetPoint) FallbackRate() float64 {
	if p.Completed == 0 {
		return 0
	}
	return float64(p.Fallbacks) / float64(p.Completed)
}

// fleetSim is the deterministic model of a fleet of edge servers shared by
// roaming full-offload clients: the engine with one station per server.
// Every server is a sched.Queue, the live scheduler's own admission rule.
// Placement runs the live roamer's rule (roam.Pick over one probe per
// server: the link's round trip plus the load hint its queue advertises);
// probing, staleness and the wire registry are exercised by the roam and
// fleet tests — the sim isolates what the rule does at scale.
type fleetSim struct {
	cfg FleetConfig
	// prep, service and post are the full-offload timeline's segments (the
	// fleet ships whole snapshots; the partial-split regime is LoadSweep's
	// subject). localFull is the whole model on the client device, the
	// fallback path.
	prep, service, post time.Duration
	localFull           time.Duration
	// modelUp is the wireless model pre-send time; peerFetch the same
	// bytes over the inter-server backhaul.
	modelUp    time.Duration
	peerFetch  time.Duration
	modelBytes int64
	// rtt is a probe's round trip over the client link, the same to every
	// server: the probe score then differs only by advertised queueing.
	rtt time.Duration
}

func newFleetSim(sc *Scenario, cfg FleetConfig) (*fleetSim, error) {
	cfg = cfg.withDefaults()
	if cfg.SLOGoal != 0 && (cfg.SLOGoal <= 0 || cfg.SLOGoal >= 1) {
		return nil, fmt.Errorf("sim: SLO goal must be in (0,1), got %v", cfg.SLOGoal)
	}
	if cfg.SLOGoal != 0 && cfg.SLOObjective <= 0 {
		return nil, fmt.Errorf("sim: SLOGoal requires SLOObjective")
	}
	for _, n := range cfg.Capacities {
		if n <= 0 {
			return nil, fmt.Errorf("sim: non-positive server capacity %d", n)
		}
	}
	after, err := sc.OffloadAfterACK()
	if err != nil {
		return nil, err
	}
	local, err := sc.ClientOnly()
	if err != nil {
		return nil, err
	}
	fs := &fleetSim{cfg: cfg, localFull: local.Total(), modelBytes: sc.ModelUploadBytes(), rtt: 2 * sc.Network.Latency}
	fs.prep, fs.service, fs.post = after.segments()
	fs.modelUp = sc.Network.TransferTime(fs.modelBytes)
	fs.peerFetch = time.Duration(float64(fs.modelUp) / fleetBackhaulFactor)
	return fs, nil
}

// cell runs the engine with nServers heterogeneous servers under clients
// closed-loop roaming sessions.
func (fs *fleetSim) cell(nServers, clients int) FleetPoint {
	var (
		names     = make([]string, nServers)
		hasBlob   = make([]bool, nServers) // content-addressed model blob present
		visited   = make([][]bool, clients)
		handoffs  int
		sloBad    uint64
		sloBurns  int
		slo       *telemetry.SLO
		simNow    time.Duration // virtual clock feeding the SLO engine
		uploaded  int64         // actual client model bytes
		would     int64         // what a sharing-free fleet would have uploaded
		peer      int64         // backhaul blob-fetch bytes
		evictions int           // bounded-store cap evictions of the model blob
		refetch   int64         // bytes those evictions forced back over the wire
	)
	eng := engine{
		clients:  clients,
		requests: fs.cfg.RequestsPerClient,
		thinkMax: fleetThinkFactor * fs.service,
		stations: make([]*sched.Queue, nServers),
		prep:     fs.prep,
		post:     fs.post,
		local:    fs.localFull,
		service:  fs.service,
		decision: obs.Decision{Path: obs.PathFull},
	}
	srvs := eng.stations
	for i := range srvs {
		srvs[i] = sched.NewQueue(sched.Config{
			Workers:    fs.cfg.Capacities[i%len(fs.cfg.Capacities)],
			QueueDepth: fleetQueueDepth,
		})
		names[i] = fmt.Sprintf("edge-%d", i)
	}
	for c := range visited {
		visited[c] = make([]bool, nServers)
	}
	// probes is what a roaming client's probe round would see: every
	// server but the one it just left, at the link's round trip, with the
	// load hint its queue advertises.
	probes := func(exclude int) []roam.ServerInfo {
		out := make([]roam.ServerInfo, 0, nServers)
		for i := range srvs {
			if i == exclude {
				continue
			}
			hint := srvs[i].Hint()
			out = append(out, roam.ServerInfo{
				Addr: names[i], RTT: fs.rtt, Load: hint, Score: roam.Score(fs.rtt, hint), Healthy: true,
			})
		}
		return out
	}
	// resolveBlob charges server s with acquiring the model blob it lacks
	// and returns the transfer time: a backhaul pull while any peer still
	// holds the blob, the client's wireless upload otherwise. With
	// unbounded stores some peer always holds it after the first upload;
	// bounded-store eviction can leave the fleet empty again.
	resolveBlob := func(s int) time.Duration {
		fromPeer := slices.Contains(hasBlob, true)
		hasBlob[s] = true
		if fromPeer {
			peer += fs.modelBytes
			return fs.peerFetch
		}
		uploaded += fs.modelBytes
		return fs.modelUp
	}
	// Routing happens at the user-event time, so the rule sees the fleet's
	// live queue state then — not the state when the previous request
	// finished. A session is placed at its start and re-placed, excluding
	// the server it abandons, whenever the roaming schedule forces a handoff.
	eng.reroute = func(n int) bool { return fs.cfg.RoamEvery > 0 && n%fs.cfg.RoamEvery == 0 }
	eng.route = func(c, from int) (int, time.Duration) {
		if from >= 0 {
			handoffs++
		}
		s := 0 // a single-server fleet with that server excluded stays put
		if target, ok := roam.Pick(probes(from)); ok {
			s = slices.Index(names, target.Addr)
		}
		// The content-addressed pre-send when a session meets a server for
		// the first time: the first request waits on the model transfer
		// unless the server already holds the blob (a ref hit). Sharing is
		// always on; the no-sharing baseline is accounted in would.
		if visited[c][s] {
			return s, 0
		}
		visited[c][s] = true
		would += fs.modelBytes
		if hasBlob[s] {
			return s, 0
		}
		return s, resolveBlob(s)
	}
	eng.hold = func(s int) time.Duration {
		if hasBlob[s] {
			return 0
		}
		// Cap pressure evicted the model since this session last used this
		// server: re-resolve the blob, then the snapshot arrives once the
		// transfer lands.
		refetch += fs.modelBytes
		return resolveBlob(s)
	}
	eng.done = func(req request, s int, now time.Duration, task *sched.Task) {
		if task != nil && fs.cfg.StoreEvictEvery > 0 && hasBlob[s] &&
			srvs[s].Executed()%int64(fs.cfg.StoreEvictEvery) == 0 {
			// The byte-capped store crossed its budget; the model blob is
			// the LRU casualty.
			hasBlob[s] = false
			evictions++
		}
		if slo != nil {
			simNow = max(simNow, now)
			if now-req.start > fs.cfg.SLOObjective {
				sloBad++
			}
			slo.Observe(now - req.start)
		}
	}
	if fs.cfg.SLOObjective > 0 {
		// The real burn-rate engine scores the run on the simulated clock;
		// short windows keep burn detection meaningful over makespans of
		// simulated seconds rather than operational hours.
		slo, _ = telemetry.NewSLO(telemetry.SLOConfig{
			Name:        "sim-fleet",
			Objective:   fs.cfg.SLOObjective,
			Goal:        fs.cfg.SLOGoal,
			ShortWindow: 5 * time.Second,
			LongWindow:  60 * time.Second,
			Now:         func() time.Time { return vclock(simNow) },
			OnBurn:      func(telemetry.SLOStatus) { sloBurns++ },
		})
	}

	out := eng.run()
	pt := FleetPoint{
		Servers:                nServers,
		Clients:                clients,
		Completed:              len(out.latencies),
		Fallbacks:              out.shed,
		Handoffs:               handoffs,
		Throughput:             out.perSecond(len(out.latencies)),
		P50Millis:              millis(obs.Quantile(out.latencies, 0.50)),
		P95Millis:              millis(obs.Quantile(out.latencies, 0.95)),
		P99Millis:              millis(obs.Quantile(out.latencies, 0.99)),
		Mix:                    out.audit.Mix,
		ExecPerServer:          make([]int, nServers),
		ClientModelUploadBytes: uploaded,
		ReuploadBytesSaved:     would - uploaded,
		PeerFetchBytes:         peer,
		StoreEvictions:         evictions,
		EvictionRefetchBytes:   refetch,
		SLOBad:                 sloBad,
		SLOBurns:               sloBurns,
	}
	if slo != nil {
		simNow = out.makespan
		pt.SLOLongBurn = slo.Status().LongBurn
	}
	for i := range srvs {
		pt.ExecPerServer[i] = int(srvs[i].Executed())
	}
	return pt
}

// FleetSweep simulates roaming full-offload clients of one model against
// fleets of increasing size, each session placed by the live roamer's rule.
// The same client population is replayed against every fleet size.
// Roaming handoffs exercise the content-addressed blob index: only the
// first client upload of the model rides the wireless link, every later
// (session, server) encounter resolves by reference.
func FleetSweep(modelName string, serverCounts []int, clients int, cfg FleetConfig) ([]FleetPoint, error) {
	if len(serverCounts) == 0 {
		return nil, fmt.Errorf("sim: empty server-count list")
	}
	if clients <= 0 {
		return nil, fmt.Errorf("sim: non-positive client count %d", clients)
	}
	sc, err := NewScenario(modelName)
	if err != nil {
		return nil, err
	}
	fs, err := newFleetSim(sc, cfg)
	if err != nil {
		return nil, err
	}
	points := make([]FleetPoint, 0, len(serverCounts))
	for _, n := range serverCounts {
		if n <= 0 {
			return nil, fmt.Errorf("sim: non-positive server count %d", n)
		}
		points = append(points, fs.cell(n, clients))
	}
	return points, nil
}
