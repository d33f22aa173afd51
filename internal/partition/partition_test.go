package partition

import (
	"errors"
	"testing"
	"time"

	"websnap/internal/costmodel"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/snapshot"
)

func paperConfig() Config {
	return Config{
		Client:             costmodel.ClientOdroid,
		Server:             costmodel.ServerX86,
		Network:            netem.WiFi30Mbps,
		StateOverheadBytes: 90 << 10, // Table 1: ~0.09 MB snapshot sans feature data
		ResultBytes:        4 << 10,
	}
}

func analyzeModel(t *testing.T, name string) Plan {
	t.Helper()
	net, err := models.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Analyze(net, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDefaultTextWidthIsTheCodecs: a config that names no text width prices
// feature data at what the snapshot codec writes — base64 of the bits, 16/3
// bytes per value — at the 2-way entry point and at the chain's.
func TestDefaultTextWidthIsTheCodecs(t *testing.T) {
	net, err := models.Build(models.AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	explicit := paperConfig()
	explicit.TextBytesPerValue = snapshot.Float32TextBytesPerValue
	for name, cfg := range map[string]Config{"default": paperConfig(), "explicit": explicit} {
		plan, err := Analyze(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range plan.Candidates {
			values := c.Point.FeatureBytes / 4
			if want := values * 16 / 3; c.FeatureTextBytes != want {
				t.Errorf("%s, %s: %d values priced at %d B, want %d", name, c.Point.Label, values, c.FeatureTextBytes, want)
			}
		}
		best, err := plan.Choose(false)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := AnalyzeChain(net, cfg.Chain())
		if err != nil {
			t.Fatal(err)
		}
		if chain.Best == nil || chain.Best.Latency != best.Total {
			t.Errorf("%s: chain optimum %+v, 2-way optimum %v at %s", name, chain.Best, best.Total, best.Point.Label)
		}
	}
}

// TestPoolBeatsPrecedingConv pins the paper's Fig 8 observation: "the
// inference time decreases when the offloading point moves from a conv
// layer to a pool layer", for every conv→pool adjacency in all three
// models.
func TestPoolBeatsPrecedingConv(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			plan := analyzeModel(t, name)
			checked := 0
			for i := 1; i < len(plan.Candidates); i++ {
				prev, cur := plan.Candidates[i-1], plan.Candidates[i]
				if prev.Point.Label[len(prev.Point.Label)-4:] == "conv" &&
					cur.Point.Label[len(cur.Point.Label)-4:] == "pool" {
					checked++
					if cur.Total >= prev.Total {
						t.Errorf("%s (%v) should beat %s (%v)",
							cur.Point.Label, cur.Total, prev.Point.Label, prev.Total)
					}
					if cur.FeatureTextBytes >= prev.FeatureTextBytes {
						t.Errorf("%s feature (%d B) should be smaller than %s (%d B)",
							cur.Point.Label, cur.FeatureTextBytes,
							prev.Point.Label, prev.FeatureTextBytes)
					}
				}
			}
			if checked == 0 {
				t.Error("no conv→pool adjacency found")
			}
		})
	}
}

// TestFirstPoolIsBestPrivacyPoint pins the paper's §IV.B conclusion: "the
// first pool layer (1st_pool) appears to be the best offloading point that
// can minimize the inference time, yet still denaturing the input data."
func TestFirstPoolIsBestPrivacyPoint(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			plan := analyzeModel(t, name)
			best, err := plan.Choose(true)
			if err != nil {
				t.Fatal(err)
			}
			if best.Point.Label != "1st_pool" {
				t.Errorf("best privacy point = %s, paper says 1st_pool", best.Point.Label)
			}
		})
	}
}

// TestFullOffloadFastestWithoutPrivacy: without the denaturing constraint,
// offloading everything (Input) minimizes time for these models — partial
// inference "leads to lower performance than offloading of full inference".
func TestFullOffloadFastestWithoutPrivacy(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			plan := analyzeModel(t, name)
			best, err := plan.Choose(false)
			if err != nil {
				t.Fatal(err)
			}
			if best.Point.Label != "Input" {
				t.Errorf("unconstrained best = %s, want Input", best.Point.Label)
			}
			constrained, err := plan.Choose(true)
			if err != nil {
				t.Fatal(err)
			}
			if constrained.Total <= best.Total {
				t.Error("privacy constraint should cost something")
			}
		})
	}
}

func TestClientTimeMonotonic(t *testing.T) {
	plan := analyzeModel(t, models.GoogLeNet)
	for i := 1; i < len(plan.Candidates); i++ {
		if plan.Candidates[i].ClientTime < plan.Candidates[i-1].ClientTime {
			t.Errorf("client time decreased from %s to %s",
				plan.Candidates[i-1].Point.Label, plan.Candidates[i].Point.Label)
		}
	}
}

func TestTotalsAreConsistent(t *testing.T) {
	plan := analyzeModel(t, models.AgeNet)
	for _, c := range plan.Candidates {
		sum := c.ClientTime + c.ServerTime + c.TransferTime + c.SnapshotOverhead
		if c.Total != sum {
			t.Errorf("%s: total %v != sum %v", c.Point.Label, c.Total, sum)
		}
		if c.Total <= 0 {
			t.Errorf("%s: non-positive total", c.Point.Label)
		}
	}
}

// TestBandwidthShiftsPartitionPoint: under a much slower network, shipping
// big features gets expensive, so the chosen point must not move toward
// larger features; under an extremely fast network, the transfer term
// vanishes and full offloading dominates everything.
func TestBandwidthShiftsPartitionPoint(t *testing.T) {
	net, err := models.Build(models.GoogLeNet)
	if err != nil {
		t.Fatal(err)
	}
	slow := paperConfig()
	slow.Network = netem.Profile{BandwidthBitsPerSec: 1e6, Latency: 20 * time.Millisecond}
	slowPlan, err := Analyze(net, slow)
	if err != nil {
		t.Fatal(err)
	}
	slowBest, err := slowPlan.Choose(true)
	if err != nil {
		t.Fatal(err)
	}
	fast := paperConfig()
	fast.Network = netem.Profile{BandwidthBitsPerSec: 10e9}
	fastPlan, err := Analyze(net, fast)
	if err != nil {
		t.Fatal(err)
	}
	fastBest, err := fastPlan.Choose(true)
	if err != nil {
		t.Fatal(err)
	}
	slowC, _ := slowPlan.ByLabel(slowBest.Point.Label)
	fastC, _ := fastPlan.ByLabel(fastBest.Point.Label)
	if slowC.FeatureTextBytes > fastC.FeatureTextBytes {
		t.Errorf("slow network chose a larger feature (%d B) than fast (%d B)",
			slowC.FeatureTextBytes, fastC.FeatureTextBytes)
	}
}

func TestByLabel(t *testing.T) {
	plan := analyzeModel(t, models.GenderNet)
	if _, ok := plan.ByLabel("1st_pool"); !ok {
		t.Error("1st_pool missing")
	}
	if _, ok := plan.ByLabel("42nd_pool"); ok {
		t.Error("nonexistent label found")
	}
}

func TestChooseNoCandidate(t *testing.T) {
	// A network whose only partition point is Input: the privacy
	// constraint leaves nothing.
	in, err := nn.NewInput("data", 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewFC("fc", 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewNetwork("fc-only", in, fc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Analyze(net, paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Choose(true); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("err = %v, want ErrNoCandidate", err)
	}
	if _, err := plan.Choose(false); err != nil {
		t.Errorf("unconstrained choose should succeed: %v", err)
	}
}

func TestAnalyzeBadNetwork(t *testing.T) {
	net, err := models.Build(models.AgeNet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paperConfig()
	cfg.Network = netem.Profile{BandwidthBitsPerSec: -5}
	if _, err := Analyze(net, cfg); err == nil {
		t.Error("invalid network profile should fail")
	}
}
