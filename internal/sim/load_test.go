package sim

import (
	"testing"
	"time"

	"websnap/internal/obs"
)

func loadPoints(t *testing.T, clients []int) []LoadPoint {
	t.Helper()
	pts, err := LoadSweep("googlenet", clients, LoadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestLoadSweepValidation(t *testing.T) {
	if _, err := LoadSweep("googlenet", nil, LoadConfig{}); err == nil {
		t.Error("empty client list should fail")
	}
	if _, err := LoadSweep("googlenet", []int{0}, LoadConfig{}); err == nil {
		t.Error("zero clients should fail")
	}
	if _, err := LoadSweep("no-such-model", []int{1}, LoadConfig{}); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := LoadSweep("googlenet", []int{1}, LoadConfig{SplitLabel: "nope"}); err == nil {
		t.Error("unknown split label should fail")
	}
}

func TestLoadSweepDeterministic(t *testing.T) {
	a := loadPoints(t, []int{8})
	b := loadPoints(t, []int{8})
	// LoadPoint holds a slice (Stages), so compare piecewise.
	sa, sb := a[0], b[0]
	if sa.Clients != sb.Clients || sa.Completed != sb.Completed ||
		sa.Fallbacks != sb.Fallbacks || sa.Throughput != sb.Throughput ||
		sa.OffloadedThroughput != sb.OffloadedThroughput ||
		sa.P50 != sb.P50 || sa.P99 != sb.P99 {
		t.Errorf("simulation not deterministic: %+v vs %+v", sa, sb)
	}
	if len(sa.Stages) != len(sb.Stages) {
		t.Fatalf("stage summaries differ in length: %d vs %d", len(sa.Stages), len(sb.Stages))
	}
	for i := range sa.Stages {
		if sa.Stages[i] != sb.Stages[i] {
			t.Errorf("stage %s not deterministic: %+v vs %+v",
				sa.Stages[i].Stage, sa.Stages[i], sb.Stages[i])
		}
	}
}

func TestLoadAllRequestsComplete(t *testing.T) {
	cfg := LoadConfig{RequestsPerClient: 5}
	pts, err := LoadSweep("googlenet", []int{16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pts[0].Completed, 16*5; got != want {
		t.Errorf("completed = %d, want %d (no inference may be lost)", got, want)
	}
}

// TestLoadTailLatencyMonotone checks that p99 latency does not decrease as
// concurrency grows — queueing can only get worse with more load.
func TestLoadTailLatencyMonotone(t *testing.T) {
	clients := []int{1, 2, 4, 8, 16, 32, 64}
	pts := loadPoints(t, clients)
	for i := 1; i < len(pts); i++ {
		if pts[i].P99 < pts[i-1].P99 {
			t.Errorf("p99 fell from %v (n=%d) to %v (n=%d)",
				pts[i-1].P99, pts[i-1].Clients, pts[i].P99, pts[i].Clients)
		}
	}
	if pts[len(pts)-1].P99 <= pts[0].P99 {
		t.Errorf("p99 never grew (%v at n=1, %v at n=64)", pts[0].P99, pts[len(pts)-1].P99)
	}
}

// TestLoadFallbackUnderOverload checks the admission-control story: with
// the queue saturated, rejected inferences complete locally rather than
// being lost, and lightly loaded sweeps see no fallback at all.
func TestLoadFallbackUnderOverload(t *testing.T) {
	pts := loadPoints(t, []int{1, 64})
	if pts[0].Fallbacks != 0 {
		t.Errorf("single client saw %d fallbacks", pts[0].Fallbacks)
	}
	if pts[1].Fallbacks == 0 {
		t.Error("64 clients against a 2-worker server should overflow the queue")
	}
	if rate := pts[1].FallbackRate(); rate <= 0 || rate >= 1 {
		t.Errorf("fallback rate = %v, want within (0, 1)", rate)
	}
}

// TestLoadDecisionMixAndPredictionError checks the audit view of the sweep:
// the decision mix accounts for every completed inference, prediction-error
// samples cover exactly the offloaded ones, and the cost model's unloaded
// prediction is accurate at a single client but increasingly optimistic
// (positive signed error: slower than predicted) as the server saturates.
func TestLoadDecisionMixAndPredictionError(t *testing.T) {
	pts := loadPoints(t, []int{1, 64})
	for _, pt := range pts {
		var mixTotal int64
		mix := map[obs.DecisionPath]int64{}
		for _, pc := range pt.Mix {
			mix[pc.Path] = pc.Count
			mixTotal += pc.Count
		}
		if mixTotal != int64(pt.Completed) {
			t.Errorf("clients=%d: mix sums to %d, want %d", pt.Clients, mixTotal, pt.Completed)
		}
		if got := mix[obs.PathFallback]; got != int64(pt.Fallbacks) {
			t.Errorf("clients=%d: mix fallbacks = %d, want %d", pt.Clients, got, pt.Fallbacks)
		}
		if got := mix[obs.PathPartial]; got != int64(pt.Completed-pt.Fallbacks) {
			t.Errorf("clients=%d: mix partial = %d, want %d", pt.Clients, got, pt.Completed-pt.Fallbacks)
		}
		if pt.PredErr.Count != pt.Completed-pt.Fallbacks {
			t.Errorf("clients=%d: prediction samples = %d, want %d (offloaded only)",
				pt.Clients, pt.PredErr.Count, pt.Completed-pt.Fallbacks)
		}
	}
	// Unloaded: one client, one request in flight — the
	// prediction differs from the simulation only by think-time-free
	// dispatch, so the relative error stays small.
	if e := pts[0].PredErr.AbsP50; e > 0.05 {
		t.Errorf("unloaded |relative error| p50 = %v, want <= 0.05", e)
	}
	// Saturated: queueing delay the unloaded prediction cannot see pushes
	// the signed error well positive.
	if pts[1].PredErr.P50 <= pts[0].PredErr.P50 {
		t.Errorf("saturated signed error p50 %v should exceed unloaded %v",
			pts[1].PredErr.P50, pts[0].PredErr.P50)
	}
	if pts[1].PredErr.P95 < pts[1].PredErr.P50 {
		t.Errorf("quantiles out of order: p95 %v < p50 %v",
			pts[1].PredErr.P95, pts[1].PredErr.P50)
	}
}

func TestPercentile(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(lat, 0.50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
