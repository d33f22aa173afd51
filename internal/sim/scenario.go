// Package sim reproduces the paper's evaluation (§IV) deterministically:
// it combines the calibrated device cost models, the network model, and
// sizes measured from the real snapshot encoder into end-to-end inference
// timelines for every configuration of Fig 6, the phase breakdown of
// Fig 7, the partition sweep of Fig 8, and the installation-overhead
// comparison of Table 1.
//
// Functional correctness of the pipeline is established separately by the
// real TCP integration tests; the simulator's job is the paper's *timing*
// shape on the paper's hardware, which a laptop cannot reproduce natively
// (DESIGN.md §1).
package sim

import (
	"fmt"

	"websnap/internal/costmodel"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/snapshot"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// Scenario holds everything needed to simulate one benchmark app.
type Scenario struct {
	// ModelName is one of the models package names.
	ModelName string
	// Net is the built model.
	Net *nn.Network
	// Client and Server are the device latency models.
	Client, Server costmodel.Device
	// Network is the emulated link (30 Mbps in the paper).
	Network netem.Profile
	// TextBytesPerValue is the textual width of one activation in a
	// snapshot: the value codec's snapshot.Float32TextBytesPerValue. Set it
	// to the paper's decimal text (≈ 9–10.5 B) to price that form instead.
	TextBytesPerValue float64
	// StateBytes is the measured size of a full offload's snapshot without
	// feature data or model weights (Table 1's "snapshot except feature
	// data" in the pre-sent case): everything in the request but the
	// image's text.
	StateBytes int64
	// InputTextBytes is the measured textual size of the input image in
	// a snapshot.
	InputTextBytes int64
	// ResultTextBytes is the measured textual size of the result scores.
	ResultTextBytes int64
	// SpecBytes is the size of the model descriptor JSON that accompanies
	// a model upload.
	SpecBytes int64
	// Precision is the model quality tier both devices run at (empty
	// means float32). Int8 shrinks per-device compute by each device's
	// calibrated Int8Speedup; snapshot sizes are unchanged because cut
	// tensors are dequantized to float32 before capture.
	Precision nn.Precision
}

// labelsFor fabricates the label set each benchmark app displays.
func labelsFor(name string, classes int) []string {
	labels := make([]string, classes)
	for i := range labels {
		labels[i] = fmt.Sprintf("%s_label_%04d", name, i)
	}
	return labels
}

// NewScenario builds and measures the scenario for one benchmark model
// using the paper's environment (Odroid client, x86 server, 30 Mbps).
func NewScenario(modelName string) (*Scenario, error) {
	net, err := models.Build(modelName)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{
		ModelName:         modelName,
		Net:               net,
		Client:            costmodel.ClientOdroid,
		Server:            costmodel.ServerX86,
		Network:           netem.WiFi30Mbps,
		TextBytesPerValue: snapshot.Float32TextBytesPerValue,
	}
	if err := sc.measure(); err != nil {
		return nil, err
	}
	return sc, nil
}

// measure derives the scenario's snapshot sizes from the real app and the
// real snapshot encoder, rather than from assumed constants.
func (sc *Scenario) measure() error {
	outShape, err := sc.Net.OutputShape()
	if err != nil {
		return err
	}
	classes := outShape[len(outShape)-1]
	app, err := mlapp.NewFullApp("measure-"+sc.ModelName, sc.ModelName, sc.Net, labelsFor(sc.ModelName, classes))
	if err != nil {
		return err
	}
	// State: what a full offload ships once the model is pre-sent (image
	// loaded, click pending, model spec-only), minus the image's text.
	inVol := tensor.Volume(sc.Net.InputShape())
	if err := mlapp.LoadImage(app, mlapp.SyntheticImage(inVol, 1)); err != nil {
		return err
	}
	snap, err := snapshot.Capture(app, snapshot.Options{
		DefaultModelPolicy: snapshot.ModelSpecOnly,
		PendingEvent:       &webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick},
	})
	if err != nil {
		return err
	}
	bd, err := snap.Breakdown()
	if err != nil {
		return err
	}
	sc.StateBytes = bd.ExceptFeatureBytes()
	spec, err := nn.EncodeSpec(sc.Net)
	if err != nil {
		return err
	}
	sc.SpecBytes = int64(len(spec))

	sc.InputTextBytes = sc.textBytes(inVol)
	sc.ResultTextBytes = sc.textBytes(tensor.Volume(outShape))
	return nil
}

// textBytes converts an activation count to snapshot text bytes.
func (sc *Scenario) textBytes(values int) int64 {
	return int64(float64(values) * sc.TextBytesPerValue)
}

// PartitionConfig exposes the scenario as a partition.Config so the Fig 8
// sweep and the live partition chooser use identical parameters.
func (sc *Scenario) PartitionConfig() partition.Config {
	return partition.Config{
		Client:             sc.Client,
		Server:             sc.Server,
		Network:            sc.Network,
		TextBytesPerValue:  sc.TextBytesPerValue,
		StateOverheadBytes: sc.StateBytes,
		ResultBytes:        sc.ResultTextBytes,
		Precision:          sc.Precision,
	}
}

// ModelUploadBytes is the size of the pre-sent model files (descriptor +
// binary weights).
func (sc *Scenario) ModelUploadBytes() int64 {
	return sc.SpecBytes + sc.Net.ModelBytes()
}
