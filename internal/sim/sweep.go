package sim

import (
	"fmt"
	"time"

	"websnap/internal/netem"
	"websnap/internal/partition"
)

// SweepPoint is one bandwidth setting's outcome in an ablation sweep: how
// the dynamic partition decision and the pre-sending benefit change with
// the network.
type SweepPoint struct {
	BandwidthMbps float64
	// BestLabel is the privacy-constrained partition choice at this
	// bandwidth.
	BestLabel string
	// BestTotal is that choice's estimated inference time.
	BestTotal time.Duration
	// FullOffload is the unconstrained full-offload (Input) time.
	FullOffload time.Duration
	// ClientOnly is the pure local execution time (bandwidth-invariant;
	// repeated for easy plotting).
	ClientOnly time.Duration
	// BeforeACK and AfterACK are the Fig 6 offloading configurations at
	// this bandwidth.
	BeforeACK, AfterACK time.Duration
}

// BandwidthSweep evaluates the offloading configurations and the dynamic
// partition choice for one model across a range of bandwidths — the
// ablation behind the paper's "runtime network status" input to
// partitioning (§III.B.2).
func BandwidthSweep(modelName string, mbps []float64) ([]SweepPoint, error) {
	if len(mbps) == 0 {
		return nil, fmt.Errorf("sim: empty bandwidth list")
	}
	base, err := NewScenario(modelName)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, 0, len(mbps))
	for _, m := range mbps {
		if m <= 0 {
			return nil, fmt.Errorf("sim: non-positive bandwidth %f", m)
		}
		sc := *base
		sc.Network = netem.Profile{BandwidthBitsPerSec: m * 1e6, Latency: base.Network.Latency}
		plan, err := partition.Analyze(sc.Net, sc.PartitionConfig())
		if err != nil {
			return nil, err
		}
		best, err := plan.Choose(true)
		if err != nil {
			return nil, err
		}
		full, err := plan.Choose(false)
		if err != nil {
			return nil, err
		}
		fig6, err := sc.Fig6Row()
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			BandwidthMbps: m,
			BestLabel:     best.Point.Label,
			BestTotal:     best.Total,
			FullOffload:   full.Total,
			ClientOnly:    fig6.Client,
			BeforeACK:     fig6.BeforeACK,
			AfterACK:      fig6.AfterACK,
		})
	}
	return points, nil
}
