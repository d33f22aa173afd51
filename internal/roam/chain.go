// Multi-hop chain placement and execution: the roam-layer driver of K-way
// partial inference. A ChainExecutor plans an ordered cut set over live
// candidate servers (queue hints folded into the DP), pre-sends the model along the chain, executes via the client chain
// protocol, and degrades on failure — excluding the dead hop and
// re-planning a shorter chain, down to 2-way and finally local execution —
// while emitting exactly one audit decision per request.
package roam

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"websnap/internal/client"
	"websnap/internal/costmodel"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/partition"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
	"websnap/internal/trace"
)

// chainRawBytesPerValue is the wire cost of one boundary value: chain
// frames ship raw little-endian float32s, not snapshot text, so each value
// is exactly 4 bytes.
const chainRawBytesPerValue = 4

// chainStateOverheadBytes approximates the non-tensor part of one chain
// frame: the JSON header with the hop manifest and trace identity.
const chainStateOverheadBytes = 512

// maxChainAttempts is a safety bound on re-planning rounds; every round
// either excludes a failed server or shortens the chain, so the bound is
// never the thing that terminates a healthy run.
const maxChainAttempts = 16

// ChainConfig parametrizes a ChainExecutor.
type ChainConfig struct {
	// AppID and ModelName identify the model at every hop; Model is the
	// full network the client holds (and pre-sends along the chain).
	AppID     string
	ModelName string
	Model     *nn.Network
	// Depth is the desired chain depth in servers (>= 1); zero selects 2.
	// The executor degrades below it when candidates, cut points, or
	// failures demand.
	Depth int
	// RequireDenature keeps at least one real layer on the client (the
	// paper's privacy constraint).
	RequireDenature bool
	// Candidates supplies the live candidate servers, best first — a
	// static address list or a ranked registry view — with the load hints
	// the planner folds into the cut-set DP; a candidate whose hint says
	// saturated is skipped. Called once per planning round, so re-plans see
	// fresh membership and hints.
	Candidates func() []protocol.FleetServer
	// Dial opens an offloading connection to a hop. Nil selects
	// client.Dial. Chaos tests wrap here.
	Dial func(addr string) (*client.Conn, error)
	// Local executes the full model locally (the terminal fallback). Nil
	// selects Model.Forward.
	Local func(in *tensor.Tensor) (*tensor.Tensor, error)
	// Auditor receives exactly one decision per Execute call (nil-safe).
	Auditor *obs.Auditor
	// Flight, when non-nil, captures every chain re-plan.
	Flight *telemetry.FlightRecorder
	// Logger, when non-nil, records planning and degradation decisions.
	Logger *obs.Logger
}

// ChainExecutor runs multi-hop partial inference with re-planning.
// Connections (with the model pre-sent) are cached per hop address across
// Execute calls; Close releases them.
type ChainExecutor struct {
	cfg         ChainConfig
	resultBytes int64

	mu      sync.Mutex
	conns   map[string]*client.Conn
	replans int
}

// NewChainExecutor validates the configuration and prepares an executor.
func NewChainExecutor(cfg ChainConfig) (*ChainExecutor, error) {
	if cfg.Model == nil {
		return nil, errors.New("roam: chain: nil model")
	}
	if cfg.AppID == "" || cfg.ModelName == "" {
		return nil, errors.New("roam: chain: empty app or model name")
	}
	if cfg.Candidates == nil {
		return nil, errors.New("roam: chain: nil candidate supplier")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.Dial == nil {
		cfg.Dial = client.Dial
	}
	if cfg.Local == nil {
		cfg.Local = cfg.Model.Forward
	}
	out, err := cfg.Model.OutputShape()
	if err != nil {
		return nil, fmt.Errorf("roam: chain: %w", err)
	}
	return &ChainExecutor{
		cfg:         cfg,
		resultBytes: int64(4 * tensor.Volume(out)),
		conns:       make(map[string]*client.Conn),
	}, nil
}

// Replans counts chain re-planning rounds across all Execute calls.
func (e *ChainExecutor) Replans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replans
}

// Close releases every cached hop connection.
func (e *ChainExecutor) Close() error {
	e.mu.Lock()
	conns := e.conns
	e.conns = make(map[string]*client.Conn)
	e.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ChainReport describes one Execute outcome.
type ChainReport struct {
	// Path is the audited execution path: chain, fallback (local after a
	// chain failure), local (no candidates), or error.
	Path obs.DecisionPath
	// Hops is the manifest that produced the result (nil for local).
	Hops []protocol.ChainHop
	// TraceID is the request's end-to-end trace identity.
	TraceID string
	// Replans counts re-planning rounds within this request.
	Replans int
	// Predicted is the DP's end-to-end estimate for the executed plan;
	// Measured is the observed wall time.
	Predicted, Measured time.Duration
	// Span is the merged chain span tree (first hop's subtree with every
	// downstream hop grafted beneath it), when telemetry returned one.
	Span *protocol.SpanNode
}

// Execute runs one inference through the best available chain, re-planning
// around failed hops and falling back to local execution when no chain
// survives. The request goes through the client funnel — its placements are
// successive chain plans, then the device — so exactly one audit decision
// is recorded per call, whatever path the request takes.
func (e *ChainExecutor) Execute(in *tensor.Tensor) (*tensor.Tensor, ChainReport, error) {
	r := &chainRequest{
		e: e, in: in,
		report:  ChainReport{TraceID: trace.NewID()},
		exclude: make(map[string]bool),
		depth:   e.cfg.Depth,
	}
	d, err := client.Funnel{AppID: e.cfg.AppID, Audit: e.cfg.Auditor, Flight: e.cfg.Flight}.Do(r.next)
	r.report.Path, r.report.Predicted, r.report.Measured = d.Path, d.Predicted, d.Measured
	switch {
	case err == nil:
		return r.output, r.report, nil
	case r.chainErr != nil:
		return nil, r.report, fmt.Errorf("roam: chain failed (%v) and local fallback failed: %w", r.chainErr, err)
	default:
		return nil, r.report, fmt.Errorf("roam: local execution failed: %w", err)
	}
}

// chainRequest is one Execute call's state: the placement iterator the
// funnel pulls from, and what its placements leave behind.
type chainRequest struct {
	e      *ChainExecutor
	in     *tensor.Tensor
	report ChainReport // Hops is the manifest of the placement in flight
	output *tensor.Tensor
	// chainErr is why the last chain placement (or plan) failed; exclude
	// holds the servers failures have blamed; depth shrinks when the model
	// has too few cut points; rounds bounds the planning loop.
	chainErr      error
	exclude       map[string]bool
	depth, rounds int
	offeredLocal  bool
}

// next yields the request's next placement: the best chain that can still
// be planned around the servers excluded so far, and once none can — or
// the round budget is spent — the device itself, last.
func (r *chainRequest) next(failed error) *client.Placement {
	if r.offeredLocal {
		return nil
	}
	if failed != nil {
		r.chainErr = failed
		r.excludeFailedHop(failed)
	}
	for ; r.rounds < maxChainAttempts; r.rounds++ {
		servers := r.e.liveCandidates(r.exclude, r.depth)
		if len(servers) == 0 {
			break
		}
		manifest, cand, err := r.e.plan(servers)
		if err != nil {
			// Not enough cut points for this depth (tiny model, deep
			// chain): shorten the chain and try again.
			if len(servers) > 1 {
				r.depth = len(servers) - 1
				continue
			}
			r.chainErr = err
			break
		}
		r.rounds++
		r.report.Hops = manifest
		p := &client.Placement{Path: obs.PathChain, Server: hopAddrs(manifest), Predicted: cand.Latency}
		switch {
		case r.report.Replans > 0:
			p.Reason = "replanned"
		case len(manifest) < r.e.cfg.Depth:
			p.Reason = "degraded-depth"
		}
		p.Run = func() (_ client.Outcome, err error) {
			r.output, r.report.Span, err = r.e.runChain(manifest, r.in, r.report.TraceID)
			return client.Outcome{TraceID: r.report.TraceID}, err
		}
		return p
	}
	r.offeredLocal = true
	r.report.Hops = nil
	p := &client.Placement{Path: obs.PathLocal, Reason: "no-candidates"}
	if r.chainErr != nil {
		p.Path, p.Reason = obs.PathFallback, "chain-failed"
	}
	p.Run = func() (_ client.Outcome, err error) {
		r.output, err = r.e.cfg.Local(r.in)
		return client.Outcome{TraceID: r.report.TraceID}, err
	}
	return p
}

// excludeFailedHop takes the server a failed chain placement blames — the
// attributed hop, else the first — out of this request's candidate set, and
// records the re-plan.
func (r *chainRequest) excludeFailedHop(failed error) {
	e, manifest := r.e, r.report.Hops
	dead := manifest[0].Addr
	var che *client.ChainHopError
	if errors.As(failed, &che) && che.Hop >= 1 && che.Hop <= len(manifest) {
		dead = manifest[che.Hop-1].Addr
	}
	r.exclude[dead] = true
	e.dropConn(dead)
	r.report.Replans++
	e.mu.Lock()
	e.replans++
	e.mu.Unlock()
	e.cfg.Logger.Warn("chain: hop failed, re-planning",
		obs.TraceID(r.report.TraceID),
		obs.F("dead", dead), obs.F("error", failed.Error()),
		obs.F("replans", r.report.Replans))
	if e.cfg.Flight != nil {
		e.cfg.Flight.Record(telemetry.FlightEntry{
			TraceID: r.report.TraceID,
			Reason:  telemetry.FlightReplan,
			Note:    fmt.Sprintf("hop %s failed (%v); excluding and re-planning", dead, failed),
		})
	}
}

// hopAddrs names a manifest's servers on the audit decision.
func hopAddrs(manifest []protocol.ChainHop) string {
	addrs := make([]string, len(manifest))
	for i, h := range manifest {
		addrs[i] = h.Addr
	}
	return strings.Join(addrs, ",")
}

// liveCandidates filters the supplier's view down to at most depth
// unexcluded, unsaturated servers, best first.
func (e *ChainExecutor) liveCandidates(exclude map[string]bool, depth int) []protocol.FleetServer {
	var out []protocol.FleetServer
	for _, s := range e.cfg.Candidates() {
		if exclude[s.Addr] || (s.Load != nil && s.Load.Saturated) {
			continue
		}
		out = append(out, s)
		if len(out) == depth {
			break
		}
	}
	return out
}

// plan runs the latency-minimizing cut-set DP over the candidate servers —
// the paper's calibrated client (costmodel.ClientOdroid) and server
// (costmodel.ServerX86) profiles, 30 Mbps Wi-Fi into every hop — and
// translates the winning cut set into a protocol hop manifest.
func (e *ChainExecutor) plan(servers []protocol.FleetServer) ([]protocol.ChainHop, partition.ChainCandidate, error) {
	hops := make([]partition.Hop, 0, len(servers)+1)
	hops = append(hops, partition.Hop{Device: costmodel.ClientOdroid})
	links := make([]netem.Profile, 0, len(servers))
	for _, s := range servers {
		hop := partition.Hop{Device: costmodel.ServerX86}
		if s.Load != nil {
			hop.QueueDelay = s.Load.QueueingDelay()
		}
		hops = append(hops, hop)
		links = append(links, netem.WiFi30Mbps)
	}
	plan, err := partition.AnalyzeChain(e.cfg.Model, partition.ChainConfig{
		Hops:               hops,
		Links:              links,
		TextBytesPerValue:  chainRawBytesPerValue,
		StateOverheadBytes: chainStateOverheadBytes,
		ResultBytes:        e.resultBytes,
	})
	if err != nil {
		return nil, partition.ChainCandidate{}, err
	}
	cand, err := plan.Choose(e.cfg.RequireDenature)
	if err != nil {
		return nil, partition.ChainCandidate{}, err
	}
	manifest := make([]protocol.ChainHop, len(servers))
	for i := range servers {
		hc := cand.Hops[i+1]
		manifest[i] = protocol.ChainHop{Addr: servers[i].Addr, From: hc.From, To: hc.To}
	}
	return manifest, cand, nil
}

// runChain pre-sends the model along the manifest, executes the client's
// front range locally, and drives the chain protocol. Failures carry hop
// attribution whenever one exists.
func (e *ChainExecutor) runChain(manifest []protocol.ChainHop, in *tensor.Tensor, traceID string) (*tensor.Tensor, *protocol.SpanNode, error) {
	for i, hop := range manifest {
		if _, err := e.hopConn(hop.Addr); err != nil {
			return nil, nil, &client.ChainHopError{Hop: i + 1, Err: err}
		}
	}
	boundary, err := e.cfg.Model.ForwardRange(in, 0, manifest[0].From)
	if err != nil {
		return nil, nil, err
	}
	conn, err := e.hopConn(manifest[0].Addr)
	if err != nil {
		return nil, nil, &client.ChainHopError{Hop: 1, Err: err}
	}
	outcome, err := conn.ChainExec(e.cfg.AppID, e.cfg.ModelName, manifest, boundary, traceID)
	if err != nil {
		if conn.Broken() {
			e.dropConn(manifest[0].Addr)
		}
		return nil, nil, err
	}
	return outcome.Output, outcome.Span, nil
}

// hopConn returns a cached connection to addr with the model pre-sent,
// dialing and pre-sending on first use.
func (e *ChainExecutor) hopConn(addr string) (*client.Conn, error) {
	e.mu.Lock()
	conn := e.conns[addr]
	e.mu.Unlock()
	if conn != nil && !conn.Broken() {
		return conn, nil
	}
	if conn != nil {
		e.dropConn(addr)
	}
	fresh, err := e.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	if _, err := fresh.PreSendModel(e.cfg.AppID, e.cfg.ModelName, e.cfg.Model, ""); err != nil {
		fresh.Close()
		return nil, err
	}
	e.mu.Lock()
	if prev := e.conns[addr]; prev != nil {
		prev.Close()
	}
	e.conns[addr] = fresh
	e.mu.Unlock()
	return fresh, nil
}

// dropConn closes and forgets the cached connection to addr.
func (e *ChainExecutor) dropConn(addr string) {
	e.mu.Lock()
	conn := e.conns[addr]
	delete(e.conns, addr)
	e.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}
