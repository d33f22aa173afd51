package costmodel

import (
	"math"
	"testing"
	"time"

	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/tensor"
)

func TestProfileMeasuresRealDevice(t *testing.T) {
	net, err := models.BuildTinyNet("profile-net", 3)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Profile("test-machine", net, 2)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if dev.Name != "test-machine" {
		t.Errorf("name = %q", dev.Name)
	}
	if dev.DefaultFLOPS <= 0 {
		t.Fatal("no aggregate throughput measured")
	}
	// Conv dominates this net; a conv throughput must be measured and be
	// physically plausible (somewhere between 1 MFLOP/s and 1 TFLOP/s).
	conv, ok := dev.FLOPSByType[nn.TypeConv]
	if !ok {
		t.Fatal("conv throughput missing")
	}
	if conv < 1e6 || conv > 1e12 {
		t.Errorf("conv throughput = %.0f FLOP/s, implausible", conv)
	}
	// The resulting device must be usable by the estimator.
	predicted, err := dev.NetworkTime(net)
	if err != nil {
		t.Fatal(err)
	}
	if predicted <= 0 || predicted > 10*time.Second {
		t.Errorf("predicted forward time = %v, implausible for the tiny net", predicted)
	}
}

func TestProfileValidation(t *testing.T) {
	net, err := models.BuildTinyNet("p", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Profile("x", net, 0); err == nil {
		t.Error("zero runs should fail")
	}
}

// TestProfilePredictionTracksReality: the profiled device's prediction for
// the very network it was profiled on should be within a small factor of a
// real measured forward pass (it cannot be exact: prediction sums per-type
// averages).
func TestProfilePredictionTracksReality(t *testing.T) {
	net, err := models.BuildTinyNet("track", 3)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Profile("here", net, 3)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := dev.NetworkTime(net)
	if err != nil {
		t.Fatal(err)
	}
	in, err := tensor.New(net.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data() {
		in.Data()[i] = float32(i%251) / 251
	}
	start := time.Now()
	if _, err := net.Forward(in); err != nil {
		t.Fatal(err)
	}
	measured := time.Since(start)
	ratio := float64(predicted) / float64(measured)
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("prediction %v vs measurement %v (ratio %.2f), want same order of magnitude",
			predicted, measured, ratio)
	}
}

// TestProfileFollowsFusion pins that the profile books work where the
// engine does it. A ReLU the plan fused into its convolution has no time of
// its own: its FLOPs join the convolution's, a layer type that only ever ran
// fused is priced at the dispatch overhead alone — not at DefaultFLOPS — and
// a type with live steps too is priced from those. Through a real plan, the
// tiny net (both ReLUs follow convolutions) must come out with a free ReLU.
func TestProfileFollowsFusion(t *testing.T) {
	// conv (9000 FLOPs, 10 us), its fused ReLU (1000 FLOPs, no time), then
	// tail, each 2000 FLOPs in 4 us.
	profile := func(name string, tail ...nn.LayerType) Device {
		t.Helper()
		steps := []nn.PlanStep{{Type: nn.TypeConv}, {Type: nn.TypeReLU, Elided: true, Fused: true}}
		infos := []nn.LayerInfo{{Type: nn.TypeConv, FLOPs: 9000}, {Type: nn.TypeReLU, FLOPs: 1000}}
		best := []time.Duration{10 * time.Microsecond, 0}
		for _, typ := range tail {
			steps = append(steps, nn.PlanStep{Type: typ})
			infos = append(infos, nn.LayerInfo{Type: typ, FLOPs: 2000})
			best = append(best, 4*time.Microsecond)
		}
		dev, err := deviceFromSteps(name, steps, infos, best)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*want }
	relu := nn.LayerInfo{Type: nn.TypeReLU, FLOPs: 1000}

	dev := profile("fused", nn.TypeFC)
	if got := dev.FLOPSByType[nn.TypeConv]; !near(got, 1e9) {
		t.Errorf("conv throughput = %g FLOP/s, want 1e9: the fused ReLU's 1000 FLOPs on top of its own 9000, in 10 us", got)
	}
	if d, err := dev.LayerTimePrec(relu, nn.PrecFloat32); err != nil || d != dev.LayerOverhead {
		t.Errorf("a ReLU that only ran fused is priced at %v (err %v), want the %v dispatch overhead", d, err, dev.LayerOverhead)
	}
	if got := dev.DefaultFLOPS; !near(got, 12000/14e-6) {
		t.Errorf("aggregate throughput = %g FLOP/s, want all 12000 FLOPs over 14 us", got)
	}

	dev = profile("mixed", nn.TypeFC, nn.TypeReLU)
	if got := dev.FLOPSByType[nn.TypeReLU]; !near(got, 0.5e9) {
		t.Errorf("ReLU throughput = %g FLOP/s, want 0.5e9 from the one that ran on its own", got)
	}

	net, err := models.BuildTinyNet("fusion", 3)
	if err != nil {
		t.Fatal(err)
	}
	if dev, err = Profile("here", net, 1); err != nil {
		t.Fatal(err)
	}
	if d, err := dev.LayerTimePrec(relu, nn.PrecFloat32); err != nil || d != dev.LayerOverhead {
		t.Errorf("tiny net: a ReLU is priced at %v (err %v), want the %v dispatch overhead", d, err, dev.LayerOverhead)
	}
}
