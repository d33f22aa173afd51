package sim

import (
	"reflect"
	"testing"
)

func TestPipelineSweepShape(t *testing.T) {
	cfg := PipelineConfig{
		ModelName:      "googlenet",
		Depths:         []int{2, 3},
		BandwidthsMbps: []float64{30},
		LoadsMillis:    []float64{0, 50},
		Requests:       20,
	}
	points, err := PipelineSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per (bandwidth, load) cell: one local row, one 2way row, one chain
	// row per depth.
	wantRows := 1 * 2 * (1 + 1 + 2)
	if len(points) != wantRows {
		t.Fatalf("got %d rows, want %d", len(points), wantRows)
	}
	perPolicy := map[string]int{}
	for _, p := range points {
		perPolicy[p.Policy]++
		if p.Requests != 20 {
			t.Errorf("%s row has %d requests, want 20", p.Policy, p.Requests)
		}
		if p.P50Millis <= 0 || p.P50Millis > p.P95Millis || p.P95Millis > p.P99Millis {
			t.Errorf("%s depth %d: unsorted percentiles %+v", p.Policy, p.Depth, p)
		}
		for name, share := range map[string]float64{
			"remote": p.RemoteShare, "local": p.LocalShare, "degraded": p.DegradedShare,
		} {
			if share < 0 || share > 1 {
				t.Errorf("%s depth %d: %s share %f out of range", p.Policy, p.Depth, name, share)
			}
		}
		switch p.Policy {
		case PipelinePolicyLocal:
			if p.LocalShare != 1 {
				t.Errorf("local policy row has local share %f", p.LocalShare)
			}
		case PipelinePolicyTwoWay, PipelinePolicyChain:
			if got := p.RemoteShare + p.LocalShare; got < 0.999 || got > 1.001 {
				t.Errorf("%s: remote+local share = %f, want 1", p.Policy, got)
			}
			if p.MeanCuts > float64(p.Depth) {
				t.Errorf("%s: mean cuts %f exceeds depth %d", p.Policy, p.MeanCuts, p.Depth)
			}
		}
	}
	if perPolicy[PipelinePolicyLocal] != 2 || perPolicy[PipelinePolicyTwoWay] != 2 || perPolicy[PipelinePolicyChain] != 4 {
		t.Fatalf("policy row counts = %+v", perPolicy)
	}
}

func TestPipelineSweepValidation(t *testing.T) {
	for name, cfg := range map[string]PipelineConfig{
		"negative requests": {Requests: -1},
		"zero bandwidth":    {BandwidthsMbps: []float64{0}},
		"zero depth":        {Depths: []int{0}},
		"unknown model":     {ModelName: "no-such-model"},
	} {
		if _, err := PipelineSweep(cfg); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

// TestPipelineSweepDeterministic pins the seeded run: identical configs
// give identical sweeps, so BENCH_pipeline.json diffs mean real changes.
func TestPipelineSweepDeterministic(t *testing.T) {
	cfg := PipelineConfig{
		Depths:         []int{3},
		BandwidthsMbps: []float64{30},
		LoadsMillis:    []float64{40},
		Requests:       10,
	}
	a, err := PipelineSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PipelineSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestPipelineChainNeverWorseThanLocal: the planner always holds local
// execution as the floor, so no chain row's tail may exceed it.
func TestPipelineChainNeverWorseThanLocal(t *testing.T) {
	cfg := PipelineConfig{
		Depths:         []int{2, 4},
		BandwidthsMbps: []float64{5, 100},
		LoadsMillis:    []float64{0, 200},
		Requests:       15,
	}
	points, err := PipelineSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	localP99 := map[[2]float64]float64{}
	for _, p := range points {
		if p.Policy == PipelinePolicyLocal {
			localP99[[2]float64{p.BandwidthMbps, p.LoadMillis}] = p.P99Millis
		}
	}
	const slack = 1e-9
	for _, p := range points {
		if p.Policy == PipelinePolicyLocal {
			continue
		}
		if floor, ok := localP99[[2]float64{p.BandwidthMbps, p.LoadMillis}]; ok && p.P99Millis > floor+slack {
			t.Errorf("%s depth %d @ %gMbps/%gms: p99 %f > local %f",
				p.Policy, p.Depth, p.BandwidthMbps, p.LoadMillis, p.P99Millis, floor)
		}
	}
}

// TestPipelineResultBytesFromOutputShape: a chain's last hop sends the
// network's scores home as raw float32s, so the sweep prices that return as
// 4 × the output volume — not as a text size divided by a text width cut to
// an integer, which read 1,125 values for GoogLeNet's 1000.
func TestPipelineResultBytesFromOutputShape(t *testing.T) {
	for model, classes := range map[string]int64{"googlenet": 1000, "agenet": 8, "gendernet": 2} {
		got, err := pipelineResultBytes(scenario(t, model))
		if err != nil {
			t.Fatal(err)
		}
		if got != 4*classes {
			t.Errorf("%s: result priced at %d B, want %d", model, got, 4*classes)
		}
	}
}
