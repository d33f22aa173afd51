// Package costmodel predicts per-layer DNN execution latency on a given
// device, in the style of Neurosurgeon's per-layer-type prediction models
// (Kang et al. 2017), which the paper uses to decide partial-inference
// partitioning points (§III.B.2).
//
// It also carries the calibrated device profiles that stand in for the
// paper's hardware: an Odroid-XU4-class client running a JS ML framework,
// and an x86 server (no GPU — the paper notes Caffe.js cannot use GPUs).
// Calibration constants are documented in DESIGN.md §4.
package costmodel

import (
	"fmt"
	"time"

	"websnap/internal/nn"
)

// Device models one execution platform's effective DNN throughput. The
// prediction model is linear per layer type (Neurosurgeon-style): predicted
// latency = FLOPs / throughput(type) + fixed per-layer dispatch overhead.
type Device struct {
	// Name identifies the profile in logs and experiment output.
	Name string
	// FLOPSByType maps a layer type to its effective throughput in
	// FLOP/s on this device. Types absent from the map fall back to
	// DefaultFLOPS.
	FLOPSByType map[nn.LayerType]float64
	// DefaultFLOPS is the throughput for layer types without a specific
	// regression.
	DefaultFLOPS float64
	// LayerOverhead is the fixed dispatch cost added per layer.
	LayerOverhead time.Duration
	// SnapshotFixed and SnapshotBytesPerSec model the cost of capturing
	// or restoring a snapshot of a given serialized size on this device
	// (the paper's Fig 7 "Snapshot Capture/Restoration" bars).
	SnapshotFixed       time.Duration
	SnapshotBytesPerSec float64
	// Int8Speedup is the throughput multiplier the quantized (int8)
	// quality tier gains on the compute-heavy layer types (Conv,
	// Inception, FC). Narrow arithmetic helps bandwidth-starved clients
	// more than wide servers, so the client's factor is typically larger
	// — which is what moves the optimal partition point when the int8
	// tier is selected. Zero means "not calibrated" and is treated as
	// 1.0: int8 predictions equal float32 ones.
	Int8Speedup float64
}

// quantizable reports whether the int8 tier accelerates this layer type.
// Only the GEMM-backed types execute in int8; activations, pooling, and
// normalization stay float32 at every precision.
func quantizable(t nn.LayerType) bool {
	return t == nn.TypeConv || t == nn.TypeInception || t == nn.TypeFC
}

// Profiles calibrated to reproduce the paper's orderings (DESIGN.md §4).
var (
	// ClientOdroid models the Odroid-XU4 ARM board executing a
	// JavaScript ML framework (slow: no SIMD, no GPU).
	ClientOdroid = Device{
		Name: "client-odroid-xu4",
		FLOPSByType: map[nn.LayerType]float64{
			nn.TypeConv:      0.15e9,
			nn.TypeInception: 0.15e9,
			nn.TypeFC:        0.25e9,
			nn.TypePool:      1.0e9,
			nn.TypeReLU:      2.0e9,
			nn.TypeLRN:       0.5e9,
			nn.TypeSoftmax:   1.0e9,
		},
		DefaultFLOPS:        0.5e9,
		LayerOverhead:       time.Millisecond,
		SnapshotFixed:       40 * time.Millisecond,
		SnapshotBytesPerSec: 60e6,
		// int8 typed arrays avoid the JS engine's float boxing and quarter
		// the memory traffic, a large win on this bandwidth-bound board.
		Int8Speedup: 3.0,
	}
	// ServerX86 models the 3.4 GHz quad-core x86 edge server, roughly
	// 10x the client's effective throughput.
	ServerX86 = Device{
		Name: "server-x86",
		FLOPSByType: map[nn.LayerType]float64{
			nn.TypeConv:      1.5e9,
			nn.TypeInception: 1.5e9,
			nn.TypeFC:        2.5e9,
			nn.TypePool:      10e9,
			nn.TypeReLU:      20e9,
			nn.TypeLRN:       5e9,
			nn.TypeSoftmax:   10e9,
		},
		DefaultFLOPS:        5e9,
		LayerOverhead:       200 * time.Microsecond,
		SnapshotFixed:       15 * time.Millisecond,
		SnapshotBytesPerSec: 400e6,
		// The x86 float path is already vectorized, so int8 gains less
		// here than on the client — which is exactly why quantization
		// shifts the optimal split toward the client (more layers become
		// cheap enough to run locally).
		Int8Speedup: 2.0,
	}
)

// ServerX86GPU projects the near-future edge server the paper anticipates
// in §IV.A: "The server execution time itself will be sharply reduced in
// the near future, since ML web frameworks are starting to use GPUs for DNN
// execution (e.g., webGL can give ~80x speedup for DNN inference)". The
// compute-bound layer types get the 80x factor; memory-bound bookkeeping
// (snapshots, dispatch) is unchanged.
var ServerX86GPU = Device{
	Name: "server-x86-webgl",
	FLOPSByType: map[nn.LayerType]float64{
		nn.TypeConv:      80 * 1.5e9,
		nn.TypeInception: 80 * 1.5e9,
		nn.TypeFC:        80 * 2.5e9,
		nn.TypePool:      80 * 10e9,
		nn.TypeReLU:      80 * 20e9,
		nn.TypeLRN:       80 * 5e9,
		nn.TypeSoftmax:   80 * 10e9,
	},
	DefaultFLOPS:        80 * 5e9,
	LayerOverhead:       200 * time.Microsecond,
	SnapshotFixed:       15 * time.Millisecond,
	SnapshotBytesPerSec: 400e6,
	// The GPU path is compute-dense already; int8 texture formats give a
	// modest further gain.
	Int8Speedup: 1.5,
}

// LayerTimePrec predicts the execution latency of one layer on the device
// at the given compute precision. At PrecInt8 the GEMM-backed layer types
// (Conv, Inception, FC) run Int8Speedup times faster; other layer types
// and the per-layer dispatch overhead are unchanged.
func (d Device) LayerTimePrec(li nn.LayerInfo, prec nn.Precision) (time.Duration, error) {
	fl := d.DefaultFLOPS
	if v, ok := d.FLOPSByType[li.Type]; ok {
		fl = v
	}
	if fl <= 0 {
		return 0, fmt.Errorf("costmodel: device %q: non-positive throughput for %s", d.Name, li.Type)
	}
	if prec == nn.PrecInt8 && d.Int8Speedup > 0 && quantizable(li.Type) {
		fl *= d.Int8Speedup
	}
	secs := float64(li.FLOPs) / fl
	return d.LayerOverhead + time.Duration(secs*float64(time.Second)), nil
}

// RangeTime predicts the latency of executing layers [from, to) described
// by infos at the float32 default precision.
func (d Device) RangeTime(infos []nn.LayerInfo, from, to int) (time.Duration, error) {
	return d.RangeTimePrec(infos, from, to, nn.PrecFloat32)
}

// RangeTimePrec predicts the latency of executing layers [from, to) at the
// given compute precision.
func (d Device) RangeTimePrec(infos []nn.LayerInfo, from, to int, prec nn.Precision) (time.Duration, error) {
	if from < 0 || to > len(infos) || from > to {
		return 0, fmt.Errorf("costmodel: range [%d, %d) out of bounds for %d layers", from, to, len(infos))
	}
	var total time.Duration
	for _, li := range infos[from:to] {
		t, err := d.LayerTimePrec(li, prec)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// NetworkTime predicts the latency of a full forward pass of net.
func (d Device) NetworkTime(net *nn.Network) (time.Duration, error) {
	infos, err := net.Describe()
	if err != nil {
		return 0, err
	}
	return d.RangeTime(infos, 0, len(infos))
}

// SnapshotTime predicts the time to capture or restore a snapshot whose
// serialized size is bytes.
func (d Device) SnapshotTime(bytes int64) time.Duration {
	if d.SnapshotBytesPerSec <= 0 {
		return d.SnapshotFixed
	}
	return d.SnapshotFixed + time.Duration(float64(bytes)/d.SnapshotBytesPerSec*float64(time.Second))
}
