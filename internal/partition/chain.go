// K-way chain partitioning: generalize the paper's single client/server
// split into an ordered cut set over a chain of devices (client → relay
// edge servers → terminal server), in the spirit of DEFER's pipelined
// multi-device partitioning. The 2-device Analyze/Choose API is the K=2
// special case: each of its candidates is the chain [client, server] cut at
// that one point.

package partition

import (
	"errors"
	"fmt"
	"time"

	"websnap/internal/costmodel"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
)

// ErrBadConfig tags configuration validation failures; test with
// errors.Is(err, ErrBadConfig).
var ErrBadConfig = errors.New("partition: invalid config")

// BadConfigError reports which configuration field is unusable and why. It
// unwraps to ErrBadConfig.
type BadConfigError struct {
	// Field names the offending field, e.g. "Network.BandwidthBitsPerSec"
	// or "Hops[2].Device.DefaultFLOPS".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *BadConfigError) Error() string {
	return fmt.Sprintf("partition: invalid config: %s: %s", e.Field, e.Reason)
}

func (e *BadConfigError) Unwrap() error { return ErrBadConfig }

// validateDevice rejects device profiles that would yield non-positive or
// non-finite layer times: the DP minimizes over candidate sums, and a NaN
// or Inf term silently poisons every comparison downstream.
func validateDevice(field string, d costmodel.Device) error {
	if d.DefaultFLOPS <= 0 {
		return &BadConfigError{Field: field + ".DefaultFLOPS", Reason: fmt.Sprintf("non-positive FLOP/s %g", d.DefaultFLOPS)}
	}
	for typ, v := range d.FLOPSByType {
		if v <= 0 {
			return &BadConfigError{Field: fmt.Sprintf("%s.FLOPSByType[%s]", field, typ), Reason: fmt.Sprintf("non-positive FLOP/s %g", v)}
		}
	}
	if d.LayerOverhead < 0 {
		return &BadConfigError{Field: field + ".LayerOverhead", Reason: fmt.Sprintf("negative duration %v", d.LayerOverhead)}
	}
	if d.SnapshotFixed < 0 {
		return &BadConfigError{Field: field + ".SnapshotFixed", Reason: fmt.Sprintf("negative duration %v", d.SnapshotFixed)}
	}
	if d.SnapshotBytesPerSec < 0 {
		return &BadConfigError{Field: field + ".SnapshotBytesPerSec", Reason: fmt.Sprintf("negative throughput %g", d.SnapshotBytesPerSec)}
	}
	return nil
}

// validateLink rejects unusable link profiles. Unlike netem.Profile (where
// zero bandwidth means "unshaped"), the estimator needs a real bandwidth:
// a zero here almost always means an unset field, and taking it as
// infinite silently drags every cut toward the largest feature.
func validateLink(field string, p netem.Profile) error {
	if p.BandwidthBitsPerSec <= 0 {
		return &BadConfigError{Field: field + ".BandwidthBitsPerSec", Reason: fmt.Sprintf("non-positive bandwidth %g", p.BandwidthBitsPerSec)}
	}
	if p.Latency < 0 {
		return &BadConfigError{Field: field + ".Latency", Reason: fmt.Sprintf("negative latency %v", p.Latency)}
	}
	return nil
}

// Validate rejects configurations that would produce NaN/Inf or negative
// candidate times: non-positive bandwidth or FLOP/s, negative sizes or
// delays. Analyze calls it; callers constructing configs from external
// input can call it earlier for a typed error.
func (cfg Config) Validate() error {
	if err := validateDevice("Client", cfg.Client); err != nil {
		return err
	}
	if err := validateDevice("Server", cfg.Server); err != nil {
		return err
	}
	if err := validateLink("Network", cfg.Network); err != nil {
		return err
	}
	if cfg.TextBytesPerValue < 0 {
		return &BadConfigError{Field: "TextBytesPerValue", Reason: fmt.Sprintf("negative width %g", cfg.TextBytesPerValue)}
	}
	if cfg.StateOverheadBytes < 0 {
		return &BadConfigError{Field: "StateOverheadBytes", Reason: fmt.Sprintf("negative size %d", cfg.StateOverheadBytes)}
	}
	if cfg.ResultBytes < 0 {
		return &BadConfigError{Field: "ResultBytes", Reason: fmt.Sprintf("negative size %d", cfg.ResultBytes)}
	}
	if cfg.ServerQueueDelay < 0 {
		return &BadConfigError{Field: "ServerQueueDelay", Reason: fmt.Sprintf("negative delay %v", cfg.ServerQueueDelay)}
	}
	if cfg.Precision != "" && !cfg.Precision.Valid() {
		return &BadConfigError{Field: "Precision", Reason: fmt.Sprintf("unknown precision %q", cfg.Precision)}
	}
	return nil
}

// Objective selects what the chain DP minimizes.
type Objective int

const (
	// ObjectiveLatency minimizes one request's end-to-end latency: the sum
	// of every hop's compute, every boundary transfer, and the result
	// return.
	ObjectiveLatency Objective = iota
	// ObjectiveThroughput minimizes the pipeline bottleneck: with a steady
	// request stream, each hop works on request n while its upstream works
	// on n+1, so sustained throughput is 1/max(stage time). A stage's time
	// is its compute plus its outbound boundary cost; the terminal stage
	// carries the result return.
	ObjectiveThroughput
)

// Hop is one device on the chain. Hops[0] is the client; its QueueDelay is
// ignored (the client does not queue behind itself).
type Hop struct {
	// Device is the hop's latency model.
	Device costmodel.Device
	// QueueDelay is the hop's estimated scheduler queueing delay, from its
	// live load hint: how long relayed work waits before this hop's layer
	// range runs.
	QueueDelay time.Duration
}

// ChainConfig parametrizes the K-way chain estimator. A chain of
// [client, server] with one link is exactly the legacy 2-device Config.
type ChainConfig struct {
	// Hops lists the devices front to back: Hops[0] is the client, the
	// rest are edge servers in relay order. len(Hops) >= 2.
	Hops []Hop
	// Links[i] is the network between Hops[i] and Hops[i+1];
	// len(Links) == len(Hops)-1.
	Links []netem.Profile
	// TextBytesPerValue converts feature element counts to snapshot text
	// bytes. Zero selects snapshot.Float32TextBytesPerValue.
	TextBytesPerValue float64
	// StateOverheadBytes is the non-feature part of each boundary
	// snapshot.
	StateOverheadBytes int64
	// ResultBytes is the size of the returning result snapshot.
	ResultBytes int64
	// Objective selects latency (default) or pipelined throughput.
	Objective Objective
	// Precision is the compute precision every hop runs its layer range
	// at (empty means float32). Boundary feature sizes are unchanged —
	// quantized plans dequantize at cut points — but hop compute shrinks
	// by each device's Int8Speedup.
	Precision nn.Precision
}

// Validate rejects chain configurations that would produce NaN/Inf or
// negative candidate times.
func (cfg ChainConfig) Validate() error {
	if len(cfg.Hops) < 2 {
		return &BadConfigError{Field: "Hops", Reason: fmt.Sprintf("need at least 2 hops, got %d", len(cfg.Hops))}
	}
	if len(cfg.Links) != len(cfg.Hops)-1 {
		return &BadConfigError{Field: "Links", Reason: fmt.Sprintf("need %d links for %d hops, got %d", len(cfg.Hops)-1, len(cfg.Hops), len(cfg.Links))}
	}
	for i, h := range cfg.Hops {
		if err := validateDevice(fmt.Sprintf("Hops[%d].Device", i), h.Device); err != nil {
			return err
		}
		if h.QueueDelay < 0 {
			return &BadConfigError{Field: fmt.Sprintf("Hops[%d].QueueDelay", i), Reason: fmt.Sprintf("negative delay %v", h.QueueDelay)}
		}
	}
	for i, l := range cfg.Links {
		if err := validateLink(fmt.Sprintf("Links[%d]", i), l); err != nil {
			return err
		}
	}
	if cfg.TextBytesPerValue < 0 {
		return &BadConfigError{Field: "TextBytesPerValue", Reason: fmt.Sprintf("negative width %g", cfg.TextBytesPerValue)}
	}
	if cfg.StateOverheadBytes < 0 {
		return &BadConfigError{Field: "StateOverheadBytes", Reason: fmt.Sprintf("negative size %d", cfg.StateOverheadBytes)}
	}
	if cfg.ResultBytes < 0 {
		return &BadConfigError{Field: "ResultBytes", Reason: fmt.Sprintf("negative size %d", cfg.ResultBytes)}
	}
	if cfg.Precision != "" && !cfg.Precision.Valid() {
		return &BadConfigError{Field: "Precision", Reason: fmt.Sprintf("unknown precision %q", cfg.Precision)}
	}
	return nil
}

// Chain lifts the legacy 2-device Config into the equivalent 2-hop
// ChainConfig: same devices, same link, server queue delay on the server
// hop. AnalyzeChain over it reproduces Analyze's candidate costs exactly.
func (cfg Config) Chain() ChainConfig {
	return ChainConfig{
		Hops: []Hop{
			{Device: cfg.Client},
			{Device: cfg.Server, QueueDelay: cfg.ServerQueueDelay},
		},
		Links:              []netem.Profile{cfg.Network},
		TextBytesPerValue:  cfg.TextBytesPerValue,
		StateOverheadBytes: cfg.StateOverheadBytes,
		ResultBytes:        cfg.ResultBytes,
		Precision:          cfg.Precision,
	}
}

// HopCost is one hop's share of a chain candidate.
type HopCost struct {
	// From and To delimit the layer range [From, To) this hop executes.
	// Hop 0's range starts at layer 0; the last hop's range ends at the
	// network's layer count.
	From, To int
	// Compute is the predicted execution time of the range on this hop.
	Compute time.Duration
	// QueueDelay is the hop's estimated scheduler wait (zero for hop 0).
	QueueDelay time.Duration
}

// ChainCandidate is one evaluated cut set with its cost breakdown.
type ChainCandidate struct {
	// Cuts are the K-1 chosen partition points in chain order: Hops[i]
	// hands off to Hops[i+1] at Cuts[i].
	Cuts []nn.PartitionPoint
	// Hops breaks the plan down per device, aligned with ChainConfig.Hops.
	Hops []HopCost
	// TransferTime sums every boundary feature transfer plus the result
	// return across all links.
	TransferTime time.Duration
	// SnapshotOverhead sums capture/restore at every boundary plus the
	// result capture/restore.
	SnapshotOverhead time.Duration
	// QueueDelay sums the relay hops' estimated scheduler waits.
	QueueDelay time.Duration
	// Latency is the end-to-end single-request estimate (the sum of all of
	// the above).
	Latency time.Duration
	// Bottleneck is the pipelined-throughput stage bound: the largest
	// single stage (hop compute + outbound boundary cost).
	Bottleneck time.Duration
	// Total is the objective value the DP minimized: Latency under
	// ObjectiveLatency, Bottleneck under ObjectiveThroughput.
	Total time.Duration
}

// ChainPlan is the chain analysis of one network: the optimal cut set with
// and without the paper's input-denaturing constraint.
type ChainPlan struct {
	NetworkName string
	// Best is the unconstrained optimum.
	Best *ChainCandidate
	// BestDenatured is the optimum whose first cut keeps at least one real
	// layer on the client (no cut at Input); nil when no such cut set
	// exists.
	BestDenatured *ChainCandidate
}

// Choose returns the optimal cut set, honoring the paper's privacy
// constraint when requireDenature is set.
func (p ChainPlan) Choose(requireDenature bool) (ChainCandidate, error) {
	c := p.Best
	if requireDenature {
		c = p.BestDenatured
	}
	if c == nil {
		return ChainCandidate{}, fmt.Errorf("%w (requireDenature=%v)", ErrNoCandidate, requireDenature)
	}
	return *c, nil
}

// AnalyzeChain chooses the optimal ordered cut set placing net's layers
// across cfg.Hops. With K hops it selects K-1 strictly increasing cuts
// from the network's partition points by dynamic programming over cut
// positions: dp[i][j] is the best objective over hops 0..i-1 with cut i at
// point j, combined left to right (sum under ObjectiveLatency, max under
// ObjectiveThroughput — both monotone, so the prefix optimum is safe to
// reuse). O(K·m²) for m partition points, versus C(m, K-1) brute force.
func AnalyzeChain(net *nn.Network, cfg ChainConfig) (ChainPlan, error) {
	if cfg.TextBytesPerValue <= 0 {
		cfg.TextBytesPerValue = snapshot.Float32TextBytesPerValue
	}
	if err := cfg.Validate(); err != nil {
		return ChainPlan{}, err
	}
	infos, err := net.Describe()
	if err != nil {
		return ChainPlan{}, fmt.Errorf("partition: %w", err)
	}
	pts, err := net.PartitionPoints()
	if err != nil {
		return ChainPlan{}, fmt.Errorf("partition: %w", err)
	}
	if len(pts) < len(cfg.Hops)-1 {
		return ChainPlan{}, fmt.Errorf("%w: %d partition points cannot seat %d cuts",
			ErrNoCandidate, len(pts), len(cfg.Hops)-1)
	}
	costs, err := newChainCosts(infos, pts, cfg)
	if err != nil {
		return ChainPlan{}, err
	}
	plan := ChainPlan{NetworkName: net.Name()}
	if best, ok := solveChain(infos, pts, cfg, costs, false); ok {
		plan.Best = &best
	}
	if best, ok := solveChain(infos, pts, cfg, costs, true); ok {
		plan.BestDenatured = &best
	}
	if plan.Best == nil {
		return ChainPlan{}, ErrNoCandidate
	}
	return plan, nil
}

// chainCosts are the cost tables of one (network, chain) pair, shared by
// the DP that picks a cut set and the breakdown of any one cut set.
type chainCosts struct {
	// prefix[h][l] is hop h's predicted time for layers [0, l); a range is
	// an exact difference of prefixes, so chain sums match a per-range
	// RangeTime sum bit for bit.
	prefix [][]time.Duration
	// cutCost[i][j] is the hand-off cost of cut slot i (1-based; between
	// Hops[i-1] and Hops[i]) placed at pts[j]: boundary transfer over
	// Links[i-1], capture on the sender, restore + queueing on the
	// receiver.
	cutCost [][]time.Duration
	// downCost is the result's way back: the result snapshot rides every
	// link; relays forward it without re-capturing, so only the terminal
	// hop captures and the client restores.
	downCost time.Duration
}

func newChainCosts(infos []nn.LayerInfo, pts []nn.PartitionPoint, cfg ChainConfig) (chainCosts, error) {
	k := len(cfg.Hops)
	prec := cfg.Precision
	if prec == "" {
		prec = nn.PrecFloat32
	}
	c := chainCosts{prefix: make([][]time.Duration, k), cutCost: make([][]time.Duration, k)}
	for h := range c.prefix {
		c.prefix[h] = make([]time.Duration, len(infos)+1)
		for l, li := range infos {
			lt, err := cfg.Hops[h].Device.LayerTimePrec(li, prec)
			if err != nil {
				return chainCosts{}, err
			}
			c.prefix[h][l+1] = c.prefix[h][l] + lt
		}
	}
	for i := 1; i < k; i++ {
		c.cutCost[i] = make([]time.Duration, len(pts))
		for j, p := range pts {
			up := featureTextBytes(p, cfg.TextBytesPerValue) + cfg.StateOverheadBytes
			c.cutCost[i][j] = cfg.Links[i-1].TransferTime(up) +
				cfg.Hops[i-1].Device.SnapshotTime(up) +
				cfg.Hops[i].Device.SnapshotTime(up) +
				cfg.Hops[i].QueueDelay
		}
	}
	downBytes := cfg.ResultBytes + cfg.StateOverheadBytes
	for _, l := range cfg.Links {
		c.downCost += l.TransferTime(downBytes)
	}
	c.downCost += cfg.Hops[k-1].Device.SnapshotTime(downBytes) +
		cfg.Hops[0].Device.SnapshotTime(downBytes)
	return c, nil
}

// hopRange is hop h's predicted time for layers [from, to).
func (c chainCosts) hopRange(h, from, to int) time.Duration {
	return c.prefix[h][to] - c.prefix[h][from]
}

// solveChain runs the cut-position DP. requireDenature restricts the first
// cut to points after Input (layer index >= 1).
func solveChain(infos []nn.LayerInfo, pts []nn.PartitionPoint, cfg ChainConfig, costs chainCosts, requireDenature bool) (ChainCandidate, bool) {
	k := len(cfg.Hops)
	m := len(pts)
	combine := func(a, b time.Duration) time.Duration {
		if cfg.Objective == ObjectiveThroughput {
			if a > b {
				return a
			}
			return b
		}
		return a + b
	}

	const unset = time.Duration(-1)
	dp := make([][]time.Duration, k)
	parent := make([][]int, k)
	for i := 1; i < k; i++ {
		dp[i] = make([]time.Duration, m)
		parent[i] = make([]int, m)
		for j := range dp[i] {
			dp[i][j] = unset
			parent[i][j] = -1
		}
	}
	for j, p := range pts {
		if requireDenature && p.Index == 0 {
			continue
		}
		// Stage 0: client computes [0, p] and pays the first hand-off.
		// Within a stage, compute and outbound hand-off always add; only
		// across stages does the objective pick sum (latency) or max
		// (pipeline bottleneck).
		dp[1][j] = costs.hopRange(0, 0, p.Index+1) + costs.cutCost[1][j]
	}
	for i := 2; i < k; i++ {
		for j := range pts {
			for jp := 0; jp < j; jp++ {
				if dp[i-1][jp] == unset {
					continue
				}
				stage := costs.hopRange(i-1, pts[jp].Index+1, pts[j].Index+1) + costs.cutCost[i][j]
				total := combine(dp[i-1][jp], stage)
				if dp[i][j] == unset || total < dp[i][j] {
					dp[i][j] = total
					parent[i][j] = jp
				}
			}
		}
	}
	bestJ, bestTotal := -1, unset
	for j := range pts {
		if dp[k-1][j] == unset {
			continue
		}
		tail := costs.hopRange(k-1, pts[j].Index+1, len(infos)) + costs.downCost
		total := combine(dp[k-1][j], tail)
		if bestJ < 0 || total < bestTotal {
			bestJ, bestTotal = j, total
		}
	}
	if bestJ < 0 {
		return ChainCandidate{}, false
	}
	cutIdx := make([]int, k-1)
	for i, j := k-1, bestJ; i >= 1; i-- {
		cutIdx[i-1] = j
		j = parent[i][j]
	}
	return evaluateChain(infos, pts, cutIdx, cfg, costs), true
}

// evaluateChain expands a chosen cut index set into a full candidate with
// per-hop and per-phase cost breakdowns.
func evaluateChain(infos []nn.LayerInfo, pts []nn.PartitionPoint, cutIdx []int, cfg ChainConfig, costs chainCosts) ChainCandidate {
	k := len(cfg.Hops)
	cand := ChainCandidate{
		Cuts: make([]nn.PartitionPoint, len(cutIdx)),
		Hops: make([]HopCost, k),
	}
	for i, j := range cutIdx {
		cand.Cuts[i] = pts[j]
	}
	for h := 0; h < k; h++ {
		from := 0
		if h > 0 {
			from = pts[cutIdx[h-1]].Index + 1
		}
		to := len(infos)
		if h < k-1 {
			to = pts[cutIdx[h]].Index + 1
		}
		cand.Hops[h] = HopCost{From: from, To: to, Compute: costs.hopRange(h, from, to)}
		if h > 0 {
			cand.Hops[h].QueueDelay = cfg.Hops[h].QueueDelay
			cand.QueueDelay += cfg.Hops[h].QueueDelay
		}
	}
	downBytes := cfg.ResultBytes + cfg.StateOverheadBytes
	for i := 1; i < k; i++ {
		j := cutIdx[i-1]
		up := featureTextBytes(pts[j], cfg.TextBytesPerValue) + cfg.StateOverheadBytes
		cand.TransferTime += cfg.Links[i-1].TransferTime(up)
		cand.SnapshotOverhead += cfg.Hops[i-1].Device.SnapshotTime(up) + cfg.Hops[i].Device.SnapshotTime(up)
	}
	for _, l := range cfg.Links {
		cand.TransferTime += l.TransferTime(downBytes)
	}
	cand.SnapshotOverhead += cfg.Hops[k-1].Device.SnapshotTime(downBytes) + cfg.Hops[0].Device.SnapshotTime(downBytes)
	var compute time.Duration
	for h := 0; h < k; h++ {
		compute += cand.Hops[h].Compute
		stage := cand.Hops[h].Compute
		if h < k-1 {
			stage += costs.cutCost[h+1][cutIdx[h]]
		} else {
			stage += costs.downCost
		}
		if stage > cand.Bottleneck {
			cand.Bottleneck = stage
		}
	}
	cand.Latency = compute + cand.TransferTime + cand.SnapshotOverhead + cand.QueueDelay
	cand.Total = cand.Latency
	if cfg.Objective == ObjectiveThroughput {
		cand.Total = cand.Bottleneck
	}
	return cand
}

// featureTextBytes converts a partition point's binary feature size to its
// snapshot text size.
func featureTextBytes(p nn.PartitionPoint, textBytesPerValue float64) int64 {
	return int64(float64(p.FeatureBytes/4) * textBytesPerValue)
}
