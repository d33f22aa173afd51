// Package partition decides where to split a DNN between client and edge
// server for partial inference (paper §III.B.2): "the partitioning point
// ... can be decided dynamically based on two factors. One is the execution
// time of each DNN layer, estimated by a prediction model for the DNN
// layers, as used in Neurosurgeon. The other is the runtime network status.
// We estimate the total execution time for forward execution and select a
// partitioning point that can minimize the total execution time, while
// including at least one layer from the front part of the DNN to denature
// the input data."
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

// ErrNoCandidate is returned when no partition point satisfies the
// constraints.
var ErrNoCandidate = errors.New("partition: no feasible partition point")

// Config parametrizes the estimator.
type Config struct {
	// Client and Server are the device latency models.
	Client, Server costmodel.Device
	// Network is the current network status.
	Network netem.Profile
	// TextBytesPerValue converts feature element counts to snapshot text
	// bytes. Zero selects snapshot.Float32TextBytesPerValue, the width the
	// value codec writes.
	TextBytesPerValue float64
	// StateOverheadBytes is the size of the non-feature part of the
	// snapshot (code stub, DOM, plain globals); small, per Table 1.
	StateOverheadBytes int64
	// ResultBytes is the size of the returning result snapshot.
	ResultBytes int64
	// ServerQueueDelay is the edge server's estimated queueing delay (from
	// its load hint): how long an offloaded session waits for a scheduler
	// worker before its server-side layers run. It burdens every candidate
	// that offloads work, so a loaded server shifts the optimum toward
	// later split points — or to fully local execution.
	ServerQueueDelay time.Duration
	// Precision is the compute precision both sides run the model at (the
	// catalog's quality tier). Empty means float32. Feature sizes are
	// unaffected — quantized plans dequantize at every layer boundary, so
	// cut tensors cross the link as float32 either way — but per-device
	// compute times shrink by each device's Int8Speedup, which moves the
	// optimal cut when client and server gain unequally.
	Precision nn.Precision
}

// Candidate is one evaluated offloading point with its estimated cost
// components — exactly the quantities plotted in Fig 8.
type Candidate struct {
	Point nn.PartitionPoint
	// ClientTime covers layers [0, Point.Index] on the client.
	ClientTime time.Duration
	// SnapshotOverhead covers capture (client) and restore (server) of
	// the outbound snapshot plus capture (server) / restore (client) of
	// the result.
	SnapshotOverhead time.Duration
	// TransferTime covers the feature-bearing snapshot up and the result
	// snapshot down.
	TransferTime time.Duration
	// ServerTime covers the remaining layers on the server.
	ServerTime time.Duration
	// QueueDelay is the estimated wait for a scheduler worker at the
	// server (zero for an idle server or when no load hint is known).
	QueueDelay time.Duration
	// FeatureTextBytes is the textual (snapshot) size of the feature
	// data crossing the link.
	FeatureTextBytes int64
	// Total is the end-to-end estimated inference time.
	Total time.Duration
}

// Plan is the full per-point analysis of one network.
type Plan struct {
	NetworkName string
	Candidates  []Candidate
}

// Analyze evaluates every candidate offloading point of net under cfg.
// Candidates are ordered front to back, starting at the Input point (full
// offloading).
func Analyze(net *nn.Network, cfg Config) (Plan, error) {
	if cfg.TextBytesPerValue <= 0 {
		cfg.TextBytesPerValue = snapshot.Float32TextBytesPerValue
	}
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	infos, err := net.Describe()
	if err != nil {
		return Plan{}, fmt.Errorf("partition: %w", err)
	}
	points, err := net.PartitionPoints()
	if err != nil {
		return Plan{}, fmt.Errorf("partition: %w", err)
	}
	if len(points) == 0 {
		return Plan{}, ErrNoCandidate
	}
	// The 2-device analysis is literally the K=2 chain: each candidate is
	// the chain [client, server] cut at that one point.
	chain := cfg.Chain()
	costs, err := newChainCosts(infos, points, chain)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{NetworkName: net.Name(), Candidates: make([]Candidate, len(points))}
	for j, p := range points {
		c := evaluateChain(infos, points, []int{j}, chain, costs)
		plan.Candidates[j] = Candidate{
			Point:            p,
			ClientTime:       c.Hops[0].Compute,
			ServerTime:       c.Hops[1].Compute,
			TransferTime:     c.TransferTime,
			SnapshotOverhead: c.SnapshotOverhead,
			QueueDelay:       c.QueueDelay,
			FeatureTextBytes: featureTextBytes(p, chain.TextBytesPerValue),
			Total:            c.Latency,
		}
	}
	return plan, nil
}

// Choose selects the candidate minimizing total inference time. With
// requireDenature set (the paper's privacy constraint), the Input point is
// excluded so at least one real layer runs on the client.
func (p Plan) Choose(requireDenature bool) (Candidate, error) {
	var best *Candidate
	for i := range p.Candidates {
		c := &p.Candidates[i]
		if requireDenature && c.Point.Index == 0 {
			continue
		}
		if best == nil || c.Total < best.Total {
			best = c
		}
	}
	if best == nil {
		return Candidate{}, fmt.Errorf("%w (requireDenature=%v)", ErrNoCandidate, requireDenature)
	}
	return *best, nil
}

// ByLabel returns the candidate with the given Fig 8 label ("1st_pool", ...).
func (p Plan) ByLabel(label string) (Candidate, bool) {
	for _, c := range p.Candidates {
		if c.Point.Label == label {
			return c, true
		}
	}
	return Candidate{}, false
}
