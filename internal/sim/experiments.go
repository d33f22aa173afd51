package sim

import (
	"fmt"
	"time"

	"websnap/internal/costmodel"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/vmsynth"
)

// Phase names one segment of the offloaded inference timeline, following
// the paper's Fig 7 legend ('C' = client, 'S' = server).
type Phase string

// Phases in timeline order.
const (
	PhaseModelUpload      Phase = "Model Upload"
	PhaseClientExec       Phase = "DNN Execution (C)"
	PhaseSnapshotCaptureC Phase = "Snapshot Capture (C)"
	PhaseTransferUp       Phase = "Snapshot Transmission (C→S)"
	PhaseSnapshotRestoreS Phase = "Snapshot Restoration (S)"
	PhaseServerExec       Phase = "DNN Execution (S)"
	PhaseSnapshotCaptureS Phase = "Snapshot Capture (S)"
	PhaseTransferDown     Phase = "Snapshot Transmission (S→C)"
	PhaseSnapshotRestoreC Phase = "Snapshot Restoration (C)"
)

// AllPhases lists every phase in timeline order.
func AllPhases() []Phase {
	return []Phase{
		PhaseModelUpload, PhaseClientExec, PhaseSnapshotCaptureC, PhaseTransferUp,
		PhaseSnapshotRestoreS, PhaseServerExec, PhaseSnapshotCaptureS,
		PhaseTransferDown, PhaseSnapshotRestoreC,
	}
}

// PhaseTime is one timed segment.
type PhaseTime struct {
	Phase    Phase
	Duration time.Duration
}

// Breakdown is the full timeline of one configuration — a Fig 7 bar.
type Breakdown struct {
	Model  string
	Config string
	Phases []PhaseTime
}

// Total returns the end-to-end time — a Fig 6 bar.
func (b Breakdown) Total() time.Duration {
	var total time.Duration
	for _, p := range b.Phases {
		total += p.Duration
	}
	return total
}

// Get returns the duration of one phase (zero if absent).
func (b Breakdown) Get(phase Phase) time.Duration {
	for _, p := range b.Phases {
		if p.Phase == phase {
			return p.Duration
		}
	}
	return 0
}

func (b *Breakdown) add(phase Phase, d time.Duration) {
	b.Phases = append(b.Phases, PhaseTime{Phase: phase, Duration: d})
}

// segments folds an offload timeline into the three stretches the event
// engine schedules: prep is everything the client does before the snapshot
// reaches the server, service one server worker's occupancy, post
// everything after the server responds.
func (b Breakdown) segments() (prep, service, post time.Duration) {
	prep = b.Get(PhaseClientExec) + b.Get(PhaseSnapshotCaptureC) + b.Get(PhaseTransferUp)
	service = b.Get(PhaseSnapshotRestoreS) + b.Get(PhaseServerExec) + b.Get(PhaseSnapshotCaptureS)
	post = b.Get(PhaseTransferDown) + b.Get(PhaseSnapshotRestoreC)
	return prep, service, post
}

// Configuration names, matching Fig 6's legend.
const (
	ConfigClient     = "Client"
	ConfigServer     = "Server"
	ConfigBeforeACK  = "Offloading (before ACK)"
	ConfigAfterACK   = "Offloading (after ACK)"
	ConfigPartial    = "Offloading (partial inference)"
	PartialPointUsed = "1st_pool" // Fig 6's partial bar uses the 1st_pool point (§IV.B)
)

// ClientOnly simulates running the app entirely at the client.
func (sc *Scenario) ClientOnly() (Breakdown, error) {
	return sc.execOnly(ConfigClient, PhaseClientExec, sc.Client)
}

// ServerOnly simulates running the app entirely at the server (the paper's
// Server configuration: no migration at all).
func (sc *Scenario) ServerOnly() (Breakdown, error) {
	return sc.execOnly(ConfigServer, PhaseServerExec, sc.Server)
}

func (sc *Scenario) execOnly(config string, phase Phase, dev costmodel.Device) (Breakdown, error) {
	t, err := dev.NetworkTime(sc.Net)
	if err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{Model: sc.ModelName, Config: config}
	b.add(phase, t)
	return b, nil
}

// offloadCycle assembles the snapshot round trip common to all offloading
// configurations: capture at the client, ship, restore at the server, run
// the given server portion, capture the result, ship back, restore.
func (sc *Scenario) offloadCycle(b *Breakdown, upFeatureBytes int64, serverExec time.Duration) {
	upBytes := sc.StateBytes + upFeatureBytes
	downBytes := sc.StateBytes + sc.ResultTextBytes
	b.add(PhaseSnapshotCaptureC, sc.Client.SnapshotTime(upBytes))
	b.add(PhaseTransferUp, sc.Network.TransferTime(upBytes))
	b.add(PhaseSnapshotRestoreS, sc.Server.SnapshotTime(upBytes))
	b.add(PhaseServerExec, serverExec)
	b.add(PhaseSnapshotCaptureS, sc.Server.SnapshotTime(downBytes))
	b.add(PhaseTransferDown, sc.Network.TransferTime(downBytes))
	b.add(PhaseSnapshotRestoreC, sc.Client.SnapshotTime(downBytes))
}

// OffloadAfterACK simulates offloading once the model pre-send has been
// acknowledged: the snapshot carries the input image text and no model.
func (sc *Scenario) OffloadAfterACK() (Breakdown, error) {
	serverExec, err := sc.Server.NetworkTime(sc.Net)
	if err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{Model: sc.ModelName, Config: ConfigAfterACK}
	sc.offloadCycle(&b, sc.InputTextBytes, serverExec)
	return b, nil
}

// OffloadBeforeACK simulates offloading before the ACK arrives: the client
// must first upload the model files, then proceed as usual (§III.B.1).
func (sc *Scenario) OffloadBeforeACK() (Breakdown, error) {
	after, err := sc.OffloadAfterACK()
	if err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{Model: sc.ModelName, Config: ConfigBeforeACK}
	b.add(PhaseModelUpload, sc.Network.TransferTime(sc.ModelUploadBytes()))
	b.Phases = append(b.Phases, after.Phases...)
	return b, nil
}

// OffloadPartial simulates partial inference split at the named Fig 8
// point: the front runs at the client, the snapshot carries feature data
// instead of the image, and the server runs the rear.
func (sc *Scenario) OffloadPartial(label string) (Breakdown, error) {
	pt, err := sc.partitionPoint(label)
	if err != nil {
		return Breakdown{}, err
	}
	infos, err := sc.Net.Describe()
	if err != nil {
		return Breakdown{}, err
	}
	clientExec, err := sc.Client.RangeTime(infos, 0, pt.Index+1)
	if err != nil {
		return Breakdown{}, err
	}
	serverExec, err := sc.Server.RangeTime(infos, pt.Index+1, len(infos))
	if err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{Model: sc.ModelName, Config: ConfigPartial}
	b.add(PhaseClientExec, clientExec)
	sc.offloadCycle(&b, sc.textBytes(int(pt.FeatureBytes/4)), serverExec)
	return b, nil
}

// partitionPoint resolves a Fig 8 offloading-point label.
func (sc *Scenario) partitionPoint(label string) (nn.PartitionPoint, error) {
	points, err := sc.Net.PartitionPoints()
	if err != nil {
		return nn.PartitionPoint{}, err
	}
	for _, p := range points {
		if p.Label == label {
			return p, nil
		}
	}
	return nn.PartitionPoint{}, fmt.Errorf("sim: %s has no partition point %q", sc.ModelName, label)
}

// Fig6Row is one group of bars in Fig 6: the inference time of one app
// under all five configurations.
type Fig6Row struct {
	Model     string
	Client    time.Duration
	Server    time.Duration
	BeforeACK time.Duration
	AfterACK  time.Duration
	Partial   time.Duration
}

// perModel concatenates the rows fn produces for every benchmark model's
// scenario, in catalog order.
func perModel[T any](fn func(sc *Scenario) ([]T, error)) ([]T, error) {
	var out []T
	for _, name := range models.Names() {
		sc, err := NewScenario(name)
		if err != nil {
			return nil, err
		}
		rows, err := fn(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Fig6 regenerates Fig 6 for all three benchmark apps.
func Fig6() ([]Fig6Row, error) { return perModel(fig6Row) }

// Fig6GPU projects Fig 6 onto the GPU-accelerated edge server the paper
// anticipates in §IV.A (webGL, ~80x DNN speedup): the same apps and
// network, with only the server device swapped.
func Fig6GPU() ([]Fig6Row, error) {
	return perModel(func(sc *Scenario) ([]Fig6Row, error) {
		sc.Server = costmodel.ServerX86GPU
		return fig6Row(sc)
	})
}

func fig6Row(sc *Scenario) ([]Fig6Row, error) {
	row, err := sc.Fig6Row()
	return []Fig6Row{row}, err
}

// Fig6Row computes one app's Fig 6 bars.
func (sc *Scenario) Fig6Row() (Fig6Row, error) {
	clientB, err := sc.ClientOnly()
	if err != nil {
		return Fig6Row{}, err
	}
	serverB, err := sc.ServerOnly()
	if err != nil {
		return Fig6Row{}, err
	}
	before, after, partial, err := sc.offloadConfigs()
	if err != nil {
		return Fig6Row{}, err
	}
	return Fig6Row{
		Model:     sc.ModelName,
		Client:    clientB.Total(),
		Server:    serverB.Total(),
		BeforeACK: before.Total(),
		AfterACK:  after.Total(),
		Partial:   partial.Total(),
	}, nil
}

// offloadConfigs returns the three offloading timelines Fig 6 and Fig 7
// plot: before ACK, after ACK, and partial inference at PartialPointUsed.
func (sc *Scenario) offloadConfigs() (before, after, partial Breakdown, err error) {
	if before, err = sc.OffloadBeforeACK(); err != nil {
		return
	}
	if after, err = sc.OffloadAfterACK(); err != nil {
		return
	}
	partial, err = sc.OffloadPartial(PartialPointUsed)
	return
}

// Fig7 regenerates Fig 7: the phase breakdown of the inference time for
// the offloading configurations of every benchmark app.
func Fig7() ([]Breakdown, error) {
	return perModel(func(sc *Scenario) ([]Breakdown, error) {
		before, after, partial, err := sc.offloadConfigs()
		return []Breakdown{before, after, partial}, err
	})
}

// Fig8Row is one model's partial-inference sweep: inference time at every
// offloading point.
type Fig8Row struct {
	Model      string
	Candidates []partition.Candidate
}

// Fig8 regenerates Fig 8 by sweeping every candidate offloading point of
// every benchmark model through the partition estimator.
func Fig8() ([]Fig8Row, error) {
	return perModel(func(sc *Scenario) ([]Fig8Row, error) {
		plan, err := partition.Analyze(sc.Net, sc.PartitionConfig())
		return []Fig8Row{{Model: sc.ModelName, Candidates: plan.Candidates}}, err
	})
}

// QuantShiftRow records where the optimal (denatured) partition point of
// one model lands at one quality tier — the quantized-split experiment.
// Precision reduction feeds back into *where* the split belongs, not just
// how fast each side runs (the DynO observation): the client's
// Int8Speedup (3×) exceeds the server's (2×), so every candidate's
// client/server balance shifts, and the planner must re-solve the table
// per tier rather than scale one answer. In the paper's Odroid + 30 Mbps
// scenario the re-solved optimum keeps the 1st_pool cut — client compute
// still dominates later candidates even at 3× — while end-to-end latency
// roughly halves; the cut itself starts moving toward the back of the
// network once the client stops being compute-bound (faster clients or
// slower links). See EXPERIMENTS.md.
type QuantShiftRow struct {
	Model      string
	Precision  nn.Precision
	BestLabel  string
	SplitIndex int
	ClientTime time.Duration
	ServerTime time.Duration
	Total      time.Duration
}

// QuantShift evaluates every benchmark model's optimal denatured split at
// both quality tiers, pairing rows per model (float32 first, int8 second).
func QuantShift() ([]QuantShiftRow, error) {
	return perModel(func(sc *Scenario) ([]QuantShiftRow, error) {
		var rows []QuantShiftRow
		for _, prec := range []nn.Precision{nn.PrecFloat32, nn.PrecInt8} {
			sc.Precision = prec
			plan, err := partition.Analyze(sc.Net, sc.PartitionConfig())
			if err != nil {
				return nil, err
			}
			best, err := plan.Choose(true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, QuantShiftRow{
				Model:      sc.ModelName,
				Precision:  prec,
				BestLabel:  best.Point.Label,
				SplitIndex: best.Point.Index,
				ClientTime: best.ClientTime,
				ServerTime: best.ServerTime,
				Total:      best.Total,
			})
		}
		return rows, nil
	})
}

// Table1Row is one column of Table 1.
type Table1Row struct {
	Model string
	// VM synthesis (on-demand installation).
	SynthesisTime time.Duration
	OverlayBytes  int64
	// Snapshot-based offloading with pre-sending.
	MigrationWithPre   time.Duration
	SansFeatureWithPre int64
	// Snapshot-based offloading without pre-sending.
	MigrationWithoutPre   time.Duration
	SansFeatureWithoutPre int64
}

// Table1 regenerates Table 1: the overhead of VM-based installation versus
// snapshot migration with and without model pre-sending.
func Table1() ([]Table1Row, error) {
	syn := vmsynth.NewSynthesizer(vmsynth.BaseImage{Name: "ubuntu-12.04", Bytes: 8 << 30})
	return perModel(func(sc *Scenario) ([]Table1Row, error) {
		overlay, err := vmsynth.BuildOverlay(vmsynth.StandardComponents(sc.Net.ModelBytes())...)
		if err != nil {
			return nil, err
		}
		// Migration = save + transmit + restore of the snapshot "just
		// before executing the offloaded event handler" (§IV.C): the first
		// three phases of the full-offload timeline.
		after, err := sc.OffloadAfterACK()
		if err != nil {
			return nil, err
		}
		migrate := after.Get(PhaseSnapshotCaptureC) + after.Get(PhaseTransferUp) +
			after.Get(PhaseSnapshotRestoreS)
		return []Table1Row{{
			Model:        sc.ModelName,
			OverlayBytes: overlay.CompressedBytes,
			SynthesisTime: sc.Network.TransferTime(overlay.CompressedBytes) +
				syn.EstimateApply(overlay.CompressedBytes),
			MigrationWithPre:      migrate,
			SansFeatureWithPre:    sc.StateBytes,
			MigrationWithoutPre:   sc.Network.TransferTime(sc.ModelUploadBytes()) + migrate,
			SansFeatureWithoutPre: sc.StateBytes + sc.ModelUploadBytes(),
		}}, nil
	})
}

// Fig1Row describes one stage of GoogLeNet for the Fig 1 architecture
// table: the layer and its output feature dimensions.
type Fig1Row struct {
	Layer       string
	Type        nn.LayerType
	OutputShape []int
	FeatureKB   int64
}

// Fig1 regenerates the Fig 1 architecture walk-through: GoogLeNet's
// per-layer feature dimensions from the 224×224×3 input to the 1000-way
// output.
func Fig1() ([]Fig1Row, error) {
	net, err := models.Build(models.GoogLeNet)
	if err != nil {
		return nil, err
	}
	infos, err := net.Describe()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, 0, len(infos))
	for _, li := range infos {
		rows = append(rows, Fig1Row{
			Layer:       li.Name,
			Type:        li.Type,
			OutputShape: li.OutputShape,
			FeatureKB:   li.OutputBytes >> 10,
		})
	}
	return rows, nil
}

// FeatureSizeRow reports the textual feature size at one offloading point —
// the §IV.B measurement behind the 14.7 MB vs 2.9 MB observation.
type FeatureSizeRow struct {
	Model     string
	Label     string
	TextBytes int64
}

// FeatureSizes regenerates the §IV.B feature-size measurements for every
// benchmark model and offloading point.
func FeatureSizes() ([]FeatureSizeRow, error) {
	return perModel(func(sc *Scenario) ([]FeatureSizeRow, error) {
		points, err := sc.Net.PartitionPoints()
		if err != nil {
			return nil, err
		}
		rows := make([]FeatureSizeRow, len(points))
		for i, p := range points {
			rows[i] = FeatureSizeRow{
				Model:     sc.ModelName,
				Label:     p.Label,
				TextBytes: sc.textBytes(int(p.FeatureBytes / 4)),
			}
		}
		return rows, nil
	})
}
