package sim

import (
	"fmt"
	"time"

	"websnap/internal/obs"
	"websnap/internal/trace"
)

// LoadConfig parameterizes the load experiment's edge server: the same
// knobs cmd/edged exposes (-workers, -queue).
type LoadConfig struct {
	// Workers is the number of concurrent executor workers.
	Workers int
	// QueueDepth is the admission queue capacity; arrivals beyond it are
	// rejected and the client falls back to local rear execution.
	QueueDepth int
	// RequestsPerClient is how many closed-loop inferences each client
	// performs.
	RequestsPerClient int
	// SplitLabel is the partial-inference offloading point (default
	// PartialPointUsed, the Fig 6 choice).
	SplitLabel string
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Workers <= 0 {
		// Two workers put the saturation knee inside the default 1..64
		// client sweep for the benchmark models, so the overload
		// (fallback) regime is visible.
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 20
	}
	if c.SplitLabel == "" {
		c.SplitLabel = PartialPointUsed
	}
	return c
}

// LoadPoint is one concurrency setting's outcome: aggregate throughput and
// the client-observed latency distribution.
type LoadPoint struct {
	Clients int
	// Completed counts finished inferences (offloaded + local fallback).
	Completed int
	// Fallbacks counts inferences the server rejected (queue full) and the
	// client finished locally.
	Fallbacks int
	// Throughput is completed inferences per simulated second, counting
	// both offloaded and fallback completions.
	Throughput float64
	// OffloadedThroughput counts only server-executed inferences per
	// second — the server's useful capacity, which local fallbacks would
	// otherwise mask at saturation.
	OffloadedThroughput float64
	// P50 and P99 are latency percentiles over all completed inferences,
	// measured from the user event to the result on screen.
	P50, P99 time.Duration
	// Stages breaks offloaded-request latency down per pipeline stage
	// (capture, wire, queue, execute, result wire, restore), each summarized
	// as count/mean/p50/p95/p99. The queue and execute stages are where
	// load contention shows; the rest are the deterministic per-request
	// costs.
	Stages []trace.StageSummary
	// Mix is the offload decision mix at this load: partial offloads versus
	// overload fallbacks, in the same vocabulary the client-side audit uses.
	Mix []obs.PathCount
	// PredErr summarizes the cost model's prediction error over offloaded
	// requests: the unloaded single-request prediction versus the simulated
	// end-to-end latency. At low load the error is queueing-free and small;
	// as the server saturates, the signed error grows — exactly the gap a
	// load-aware offload policy must absorb.
	PredErr obs.ErrQuantiles
}

// FallbackRate is the fraction of inferences that fell back to local
// execution.
func (p LoadPoint) FallbackRate() float64 {
	if p.Completed == 0 {
		return 0
	}
	return float64(p.Fallbacks) / float64(p.Completed)
}

// loadThinkMax bounds each load client's think time before every request.
const loadThinkMax = 250 * time.Millisecond

// loadSim is the deterministic model of N closed-loop partial-offload
// clients sharing one edge server: the engine with a single station. Each
// client owns its wireless link (links are not shared); the server is the
// contended resource, exactly the regime the scheduler targets.
type loadSim struct {
	cfg LoadConfig
	// bd is the split's unloaded timeline, the source of every fixed
	// per-request duration and of the cost model's prediction.
	bd Breakdown
	// localRear is the client's own rear execution, used on fallback.
	localRear time.Duration
}

// newLoadSim reads the segment durations off the scenario's partial-offload
// timeline at the configured split point.
func newLoadSim(sc *Scenario, cfg LoadConfig) (*loadSim, error) {
	cfg = cfg.withDefaults()
	bd, err := sc.OffloadPartial(cfg.SplitLabel)
	if err != nil {
		return nil, err
	}
	pt, err := sc.partitionPoint(cfg.SplitLabel)
	if err != nil {
		return nil, err
	}
	infos, err := sc.Net.Describe()
	if err != nil {
		return nil, err
	}
	localRear, err := sc.Client.RangeTime(infos, pt.Index+1, len(infos))
	if err != nil {
		return nil, err
	}
	return &loadSim{cfg: cfg, bd: bd, localRear: localRear}, nil
}

// point runs the engine with clients concurrent closed-loop clients.
func (ls *loadSim) point(clients int) (LoadPoint, error) {
	rec := trace.NewRecorder()
	prep, service, post := ls.bd.segments()
	eng := engine{
		clients:    clients,
		requests:   ls.cfg.RequestsPerClient,
		thinkMax:   loadThinkMax,
		stations:   []station{{workers: ls.cfg.Workers}},
		queueDepth: ls.cfg.QueueDepth,
		prep:       prep,
		post:       post,
		local:      ls.localRear,
		service:    service,
		// Predicted is the cost model's unloaded single-request latency, with
		// no queueing. Decisions compare it against simulated end-to-end
		// latency to quantify prediction error under load.
		decision: obs.Decision{Path: obs.PathPartial, SplitLabel: ls.cfg.SplitLabel, Predicted: ls.bd.Total()},
	}
	eng.done = func(req request, _ int, _ time.Duration, served bool) {
		if !served {
			return
		}
		// Queue and execute are where load contention shows; the rest are
		// the fixed per-request stages of an offloaded inference.
		rec.Observe(trace.StageQueue, req.dispatch-req.arrive)
		rec.Observe(trace.StageExecute, service)
		rec.Observe(trace.StageCapture, ls.bd.Get(PhaseSnapshotCaptureC))
		rec.Observe(trace.StageWire, ls.bd.Get(PhaseTransferUp))
		rec.Observe(trace.StageResultWire, ls.bd.Get(PhaseTransferDown))
		rec.Observe(trace.StageRestore, ls.bd.Get(PhaseSnapshotRestoreC))
	}
	out, err := eng.run()
	if err != nil {
		return LoadPoint{}, err
	}
	completed := len(out.latencies)
	return LoadPoint{
		Clients:             clients,
		Completed:           completed,
		Fallbacks:           out.shed,
		Throughput:          out.perSecond(completed),
		OffloadedThroughput: out.perSecond(completed - out.shed),
		P50:                 percentile(out.latencies, 0.50),
		P99:                 percentile(out.latencies, 0.99),
		Stages:              rec.Summaries(),
		Mix:                 out.audit.Mix,
		PredErr:             out.audit.PredErr,
	}, nil
}

// LoadSweep simulates the edge server under increasing numbers of
// concurrent partial-offload clients of one model — the scheduler's target
// workload: every session shares the same pre-sent rear model, and the
// worker pool serves one session per worker turn.
func LoadSweep(modelName string, clients []int, cfg LoadConfig) ([]LoadPoint, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("sim: empty client list")
	}
	sc, err := NewScenario(modelName)
	if err != nil {
		return nil, err
	}
	ls, err := newLoadSim(sc, cfg)
	if err != nil {
		return nil, err
	}
	points := make([]LoadPoint, 0, len(clients))
	for _, n := range clients {
		if n <= 0 {
			return nil, fmt.Errorf("sim: non-positive client count %d", n)
		}
		pt, err := ls.point(n)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}
