package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"websnap/internal/costmodel"
	"websnap/internal/netem"
	"websnap/internal/obs"
	"websnap/internal/partition"
	"websnap/internal/tensor"
)

// Pipeline-sweep policies.
const (
	// PolicyLocal executes everything on the client.
	PipelinePolicyLocal = "local"
	// PolicyTwoWay is the paper's baseline: the legacy single-split
	// partial offload (client + one server, snapshot text encoding).
	PipelinePolicyTwoWay = "2way"
	// PolicyChain is the K-way pipeline: the cut-set DP over a chain of
	// servers with raw float32 hop-to-hop relay frames.
	PipelinePolicyChain = "chain"
)

// pipelineInterEdgeMbps is the wired edge backbone every inter-server link
// runs at.
const pipelineInterEdgeMbps = 200

// pipelineSeed drives the deterministic queue-delay draws.
const pipelineSeed = 20260808

// PipelineConfig parametrizes the pipeline sweep.
type PipelineConfig struct {
	// ModelName selects the benchmark model (GoogLeNet by default).
	ModelName string
	// Depths are the chain depths (server counts) to sweep.
	Depths []int
	// BandwidthsMbps sweeps the client uplink; inter-server links stay at
	// pipelineInterEdgeMbps.
	BandwidthsMbps []float64
	// LoadsMillis sweeps the mean per-server queueing delay; each request
	// draws every hop's delay from an exponential with this mean.
	LoadsMillis []float64
	// Requests is the number of simulated requests per sweep point.
	Requests int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.ModelName == "" {
		c.ModelName = "googlenet"
	}
	if len(c.Depths) == 0 {
		c.Depths = []int{2, 3, 4}
	}
	if len(c.BandwidthsMbps) == 0 {
		c.BandwidthsMbps = []float64{5, 30, 100}
	}
	if len(c.LoadsMillis) == 0 {
		c.LoadsMillis = []float64{0, 20, 80}
	}
	if c.Requests == 0 {
		c.Requests = 100
	}
	return c
}

// PipelinePoint is one (policy, depth, bandwidth, load) cell of the sweep.
type PipelinePoint struct {
	Policy        string  `json:"policy"`
	Depth         int     `json:"depth"`
	BandwidthMbps float64 `json:"bandwidthMbps"`
	LoadMillis    float64 `json:"loadMillis"`
	Requests      int     `json:"requests"`

	// Latency percentiles across the simulated requests.
	P50Millis float64 `json:"p50Millis"`
	P95Millis float64 `json:"p95Millis"`
	P99Millis float64 `json:"p99Millis"`

	// Decision mix: how often the policy's planner kept the request on
	// the preferred remote path versus degrading. Local executions (the
	// plan lost to client-only compute under the drawn load) are the
	// "local" share; for the chain policy, "degraded" counts plans that
	// collapsed below the target depth.
	RemoteShare   float64 `json:"remoteShare"`
	LocalShare    float64 `json:"localShare"`
	DegradedShare float64 `json:"degradedShare"`

	// MeanCuts is the average number of servers the chosen plan used
	// (0 for pure-local policies/requests).
	MeanCuts float64 `json:"meanCuts"`
}

// xorshift64 is the simulator's deterministic random stream.
type xorshift64 uint64

func (x *xorshift64) uniform() float64 {
	s := uint64(*x)
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	*x = xorshift64(s)
	// Top 53 bits to (0,1), strictly inside so ln stays finite.
	return (float64(s>>11) + 0.5) / (1 << 53)
}

// expDelay draws an exponential queueing delay with the given mean.
func (x *xorshift64) expDelay(meanMillis float64) time.Duration {
	if meanMillis <= 0 {
		return 0
	}
	return time.Duration(-meanMillis * math.Log(x.uniform()) * float64(time.Millisecond))
}

// PipelineSweep evaluates the chain-depth × bandwidth × load grid for the
// three policies. Every request re-plans against freshly drawn per-hop
// queueing delays — the same "live hints into the DP" loop the runtime
// executor runs — so the mix columns show when deeper chains stop paying.
func PipelineSweep(cfg PipelineConfig) ([]PipelinePoint, error) {
	cfg = cfg.withDefaults()
	if cfg.Requests < 0 {
		return nil, fmt.Errorf("sim: negative request count %d", cfg.Requests)
	}
	sc, err := NewScenario(cfg.ModelName)
	if err != nil {
		return nil, err
	}
	clientOnly, err := sc.ClientOnly()
	if err != nil {
		return nil, err
	}
	local := clientOnly.Total()
	resultBytes, err := pipelineResultBytes(sc)
	if err != nil {
		return nil, err
	}

	rng := xorshift64(pipelineSeed)
	var points []PipelinePoint
	for _, mbps := range cfg.BandwidthsMbps {
		if mbps <= 0 {
			return nil, fmt.Errorf("sim: non-positive bandwidth %f", mbps)
		}
		uplink := netem.Profile{BandwidthBitsPerSec: mbps * 1e6, Latency: sc.Network.Latency}
		backbone := netem.Profile{BandwidthBitsPerSec: pipelineInterEdgeMbps * 1e6, Latency: time.Millisecond}
		for _, loadMillis := range cfg.LoadsMillis {
			// Local policy: load- and depth-invariant, one row per cell
			// for easy plotting.
			points = append(points, pipelineLocalPoint(local, mbps, loadMillis, cfg.Requests))

			// Two-way baseline: legacy single-split DP with the drawn
			// server queue delay.
			pt, err := pipelineTwoWay(sc, uplink, loadMillis, local, cfg.Requests, &rng)
			if err != nil {
				return nil, err
			}
			pt.BandwidthMbps, pt.LoadMillis = mbps, loadMillis
			points = append(points, pt)

			for _, depth := range cfg.Depths {
				if depth < 1 {
					return nil, fmt.Errorf("sim: chain depth %d < 1", depth)
				}
				pt, err := pipelineChain(sc, uplink, backbone, depth, loadMillis, local, resultBytes, cfg.Requests, &rng)
				if err != nil {
					return nil, err
				}
				pt.BandwidthMbps, pt.LoadMillis = mbps, loadMillis
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// pipelineResultBytes is what a chain's last hop sends home: the network's
// output scores as raw float32s, whatever a snapshot's text width is.
func pipelineResultBytes(sc *Scenario) (int64, error) {
	outShape, err := sc.Net.OutputShape()
	if err != nil {
		return 0, err
	}
	return int64(partition.ChainFrameBytesPerValue) * int64(tensor.Volume(outShape)), nil
}

func pipelineLocalPoint(local time.Duration, mbps, loadMillis float64, requests int) PipelinePoint {
	m := millis(local)
	return PipelinePoint{
		Policy: PipelinePolicyLocal, Depth: 0,
		BandwidthMbps: mbps, LoadMillis: loadMillis, Requests: requests,
		P50Millis: m, P95Millis: m, P99Millis: m,
		LocalShare: 1,
	}
}

// pipelineTally accumulates one sweep cell: every request's latency and
// what the planner did with it.
type pipelineTally struct {
	latencies              []time.Duration
	remote, degraded, cuts int
}

// add records one request whose best plan takes total over servers servers
// of a depth-deep chain. The planner holds local execution as the floor: a
// plan that does not beat it (or no plan at all, servers == 0) runs locally.
// A remote plan on fewer servers than the target depth counts as degraded.
func (t *pipelineTally) add(total, local time.Duration, servers, depth int) {
	if servers == 0 || total >= local {
		t.latencies = append(t.latencies, local)
		return
	}
	t.latencies = append(t.latencies, total)
	t.remote++
	t.cuts += servers
	if servers < depth {
		t.degraded++
	}
}

func (t *pipelineTally) point(policy string, depth int) PipelinePoint {
	sort.Slice(t.latencies, func(i, j int) bool { return t.latencies[i] < t.latencies[j] })
	n := len(t.latencies)
	return PipelinePoint{
		Policy: policy, Depth: depth, Requests: n,
		P50Millis:     millis(obs.Quantile(t.latencies, 0.50)),
		P95Millis:     millis(obs.Quantile(t.latencies, 0.95)),
		P99Millis:     millis(obs.Quantile(t.latencies, 0.99)),
		RemoteShare:   float64(t.remote) / float64(n),
		LocalShare:    float64(n-t.remote) / float64(n),
		DegradedShare: float64(t.degraded) / float64(n),
		MeanCuts:      float64(t.cuts) / float64(n),
	}
}

// pipelineTwoWay simulates the legacy 2-device policy: per request, draw
// the server queue delay, re-run the single-split DP, and take the better
// of the best split and local execution.
func pipelineTwoWay(sc *Scenario, uplink netem.Profile, loadMillis float64, local time.Duration, requests int, rng *xorshift64) (PipelinePoint, error) {
	pcfg := sc.PartitionConfig()
	pcfg.Network = uplink
	var tally pipelineTally
	for i := 0; i < requests; i++ {
		pcfg.ServerQueueDelay = rng.expDelay(loadMillis)
		plan, err := partition.Analyze(sc.Net, pcfg)
		if err != nil {
			return PipelinePoint{}, err
		}
		best, err := plan.Choose(true)
		if err != nil {
			return PipelinePoint{}, err
		}
		tally.add(best.Total, local, 1, 1)
	}
	return tally.point(PipelinePolicyTwoWay, 1), nil
}

// pipelineChain simulates the K-way policy: per request, draw every hop's
// queue delay, run the cut-set DP over the full chain, and take the better
// of the chain plan and local execution. The chain is heterogeneous the
// way a real edge path is: the first hop is the paper's x86 server (the
// nearby cell), deeper hops the §IV.A GPU projection (the better-equipped
// aggregation site reachable only over the backbone) — heterogeneity is
// what deep cuts exploit, since with identical hops the latency DP
// correctly collapses to a single server.
func pipelineChain(sc *Scenario, uplink, backbone netem.Profile, depth int, loadMillis float64, local time.Duration, resultBytes int64, requests int, rng *xorshift64) (PipelinePoint, error) {
	var tally pipelineTally
	for i := 0; i < requests; i++ {
		hops := make([]partition.Hop, depth+1)
		links := make([]netem.Profile, depth)
		hops[0] = partition.Hop{Device: sc.Client}
		for h := 1; h <= depth; h++ {
			dev := sc.Server
			if h > 1 {
				dev = costmodel.ServerX86GPU
			}
			hops[h] = partition.Hop{Device: dev, QueueDelay: rng.expDelay(loadMillis)}
			if h == 1 {
				links[h-1] = uplink
			} else {
				links[h-1] = backbone
			}
		}
		// Depth candidates: the runtime executor can shorten the chain,
		// so evaluate every prefix depth and keep the fastest plan.
		bestTotal := time.Duration(math.MaxInt64)
		bestDepth := 0
		for k := 1; k <= depth; k++ {
			plan, err := partition.AnalyzeChain(sc.Net, partition.ChainConfig{
				Hops:               hops[:k+1],
				Links:              links[:k],
				TextBytesPerValue:  partition.ChainFrameBytesPerValue,
				StateOverheadBytes: partition.ChainFrameOverheadBytes,
				ResultBytes:        resultBytes,
			})
			if err != nil {
				return PipelinePoint{}, err
			}
			cand, err := plan.Choose(true)
			if err != nil {
				// Too few cut points for this depth: deeper prefixes
				// only get worse, stop here.
				break
			}
			if cand.Total < bestTotal {
				bestTotal = cand.Total
				bestDepth = k
			}
		}
		tally.add(bestTotal, local, bestDepth, depth)
	}
	return tally.point(PipelinePolicyChain, depth), nil
}
