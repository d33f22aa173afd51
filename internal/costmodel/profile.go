package costmodel

import (
	"fmt"
	"math"
	"time"

	"websnap/internal/nn"
	"websnap/internal/tensor"
)

// Profile builds a Device by *measuring* a network on the current machine:
// a forward pass runs through the network's compiled execution plan with
// per-step timing, and each step's wall-clock time is attributed to its
// layer type, yielding per-type effective throughputs — exactly how
// Neurosurgeon constructs its per-layer prediction models from profiling
// runs. Measuring through the plan (not layer calls outside one) means
// predicted layer times reflect the production kernels: pooled buffers,
// in-place activation steps, and the shared GEMM. Use it to replace the
// calibrated paper profiles with a profile of real hardware:
//
//	dev, _ := costmodel.Profile("my-laptop", net, 3)
//	plan, _ := partition.Analyze(net, partition.Config{Client: dev, ...})
//
// runs is the number of timed passes (the per-step minimum across passes
// is kept, which rejects scheduler noise).
func Profile(name string, net *nn.Network, runs int) (Device, error) {
	return ProfilePrec(name, net, runs, nn.PrecFloat32)
}

// ProfilePrec is Profile at an explicit compute precision: the timed plan
// is compiled at prec, so a PrecInt8 profile's per-type throughputs
// reflect the quantized kernels directly (the device's Int8Speedup stays
// unset — the speedup is already baked into the measured numbers). The
// ratio of a device's PrecFloat32 and PrecInt8 profiles on the same
// hardware is how the calibrated Int8Speedup constants were derived.
func ProfilePrec(name string, net *nn.Network, runs int, prec nn.Precision) (Device, error) {
	if runs <= 0 {
		return Device{}, fmt.Errorf("costmodel: profile %q: runs must be positive", name)
	}
	infos, err := net.Describe()
	if err != nil {
		return Device{}, err
	}
	plan, err := net.PlanPrec(prec, net.InputShape()...)
	if err != nil {
		return Device{}, fmt.Errorf("costmodel: profile %q: %w", name, err)
	}
	in, err := tensor.New(net.InputShape()...)
	if err != nil {
		return Device{}, err
	}
	seed := uint64(len(name)) + 12345
	for i := range in.Data() {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		in.Data()[i] = float32(seed%1000)/500 - 1
	}

	best := make([]time.Duration, plan.NumSteps())
	times := make([]time.Duration, plan.NumSteps())
	for r := 0; r < runs; r++ {
		if _, err := plan.ForwardTimed(in, times); err != nil {
			return Device{}, fmt.Errorf("costmodel: profile %q: %w", name, err)
		}
		for i, t := range times {
			if r == 0 || t < best[i] {
				best[i] = t
			}
		}
	}

	dev, err := deviceFromSteps(name, plan.Steps(), infos, best)
	if err != nil {
		return Device{}, fmt.Errorf("%w in network %q", err, net.Name())
	}
	return dev, nil
}

// deviceFromSteps turns per-step wall times into per-type throughputs. A
// step fused into the one before it (a ReLU folded into its convolution's
// kernel) runs nothing of its own: its FLOPs are work the producing step's
// kernel did in the producing step's time, so they are booked there. A type
// whose every step was fused gets an infinite throughput — its layers cost
// nothing but dispatch — instead of falling through to DefaultFLOPS for
// work the engine no longer does.
func deviceFromSteps(name string, steps []nn.PlanStep, infos []nn.LayerInfo, best []time.Duration) (Device, error) {
	flopsByType := make(map[nn.LayerType]int64)
	timeByType := make(map[nn.LayerType]time.Duration)
	ran, fused := make(map[nn.LayerType]bool), make(map[nn.LayerType]bool)
	for i, st := range steps {
		typ := infos[i].Type
		if st.Fused {
			fused[typ] = true
			typ = infos[i-1].Type
		} else {
			ran[typ] = true
		}
		flopsByType[typ] += infos[i].FLOPs
		timeByType[typ] += best[i]
	}

	dev := Device{
		Name:        name,
		FLOPSByType: make(map[nn.LayerType]float64, len(flopsByType)),
		// Bookkeeping costs: modest defaults; refine with real snapshot
		// measurements if needed.
		LayerOverhead:       50 * time.Microsecond,
		SnapshotFixed:       10 * time.Millisecond,
		SnapshotBytesPerSec: 200e6,
	}
	var totalFLOPs int64
	var totalTime time.Duration
	for typ, fl := range flopsByType {
		t := timeByType[typ]
		totalFLOPs += fl
		totalTime += t
		if fl > 0 && t > 0 {
			dev.FLOPSByType[typ] = float64(fl) / t.Seconds()
		}
	}
	if totalTime <= 0 || totalFLOPs <= 0 {
		return Device{}, fmt.Errorf("costmodel: profile %q: nothing measurable", name)
	}
	for typ := range fused {
		if !ran[typ] {
			dev.FLOPSByType[typ] = math.Inf(1)
		}
	}
	dev.DefaultFLOPS = float64(totalFLOPs) / totalTime.Seconds()
	return dev, nil
}
