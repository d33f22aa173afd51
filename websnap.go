// Package websnap is a Go implementation of snapshot-based computation
// offloading for machine-learning web apps in the edge server environment
// (Jeong, Jeong, Lee, Moon — ICDCS 2018).
//
// A client device runs a self-contained ML web app on a deterministic
// web-app runtime. Just before a computation-intensive event handler (DNN
// inference) executes, the runtime captures the app's entire execution
// state — globals, heap objects, DOM tree, pending event — as a *snapshot*:
// a textual program that is itself an app. The snapshot travels to a nearby
// generic edge server, runs there on the server's runtime with its faster
// hardware, and a new snapshot containing the result travels back and
// resumes on the client.
//
// The package re-exports the library's public surface:
//
//   - Session: run an ML app with local, full-offload, partial-offload
//     (privacy-preserving), or automatic strategy.
//   - NewEdgeServer / Dial: the edge-server offloading program and the
//     client connection to it.
//   - BuildGoogLeNet / BuildAgeNet / BuildGenderNet: the paper's benchmark
//     DNNs, plus BuildTinyNet for fast demos.
//   - Shape / WiFi30Mbps: netem-style bandwidth emulation.
//   - Fig6 / Fig7 / Fig8 / Table1 / Fig1 / FeatureSizes: regenerate every
//     figure and table of the paper's evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package websnap

import (
	"log/slog"

	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/costmodel"
	"websnap/internal/edge"
	"websnap/internal/models"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/partition"
	"websnap/internal/roam"
	"websnap/internal/sim"
	"websnap/internal/snapshot"
	"websnap/internal/webapp"
)

// Core session API.
type (
	// Session is one running ML web app with an offloading strategy.
	Session = core.Session
	// SessionConfig configures NewSession.
	SessionConfig = core.SessionConfig
	// Mode selects the offloading strategy.
	Mode = core.Mode
	// Stats reports offloading counters and transfer sizes.
	Stats = client.Stats
)

// Session modes.
const (
	ModeLocal   = core.ModeLocal
	ModeFull    = core.ModeFull
	ModePartial = core.ModePartial
	ModeAuto    = core.ModeAuto
)

// NewSession builds an ML web app with the configured offloading strategy.
func NewSession(cfg SessionConfig) (*Session, error) { return core.NewSession(cfg) }

// Web runtime and snapshot types.
type (
	// App is a running web app instance.
	App = webapp.App
	// Event is a DOM event.
	Event = webapp.Event
	// Float32Array is the typed-array value for pixels and features.
	Float32Array = webapp.Float32Array
	// Catalog resolves code hashes to app code bundles.
	Catalog = webapp.Catalog
	// Snapshot is a captured app execution state.
	Snapshot = snapshot.Snapshot
)

// DefaultCatalog returns the catalog of standard ML web-app code bundles.
func DefaultCatalog() (*Catalog, error) { return core.DefaultCatalog() }

// Edge server and client connection.
type (
	// EdgeServer is the offloading program running at an edge server.
	EdgeServer = edge.Server
	// EdgeConfig configures an edge server.
	EdgeConfig = edge.Config
	// Conn is a client connection to an edge server.
	Conn = client.Conn
)

// NewEdgeServer constructs a pre-installed edge server for the standard ML
// web apps. logger may be nil (silent).
func NewEdgeServer(logger *slog.Logger) (*EdgeServer, error) { return core.NewEdgeServer(logger) }

// NewEdgeServerWithConfig constructs an edge server with full control
// (custom catalog, on-demand installation via VM synthesis).
func NewEdgeServerWithConfig(cfg EdgeConfig) (*EdgeServer, error) { return edge.NewServer(cfg) }

// Dial connects to an edge server over TCP.
func Dial(addr string) (*Conn, error) { return client.Dial(addr) }

// Roaming between edge servers (the paper's §I mobility scenario).
type (
	// Roamer tracks candidate edge servers and switches between them.
	Roamer = roam.Roamer
	// RoamConfig parametrizes a Roamer.
	RoamConfig = roam.Config
	// RoamServerInfo is the probe state of one candidate server.
	RoamServerInfo = roam.ServerInfo
)

// NewRoamer creates a roamer over candidate edge servers.
func NewRoamer(cfg RoamConfig) (*Roamer, error) { return roam.New(cfg) }

// NewConn wraps an existing net.Conn (e.g. a netem-shaped one).
var NewConn = client.NewConn

// Models.
type (
	// Network is a DNN.
	Network = nn.Network
)

// Benchmark model names.
const (
	GoogLeNet = models.GoogLeNet
	AgeNet    = models.AgeNet
	GenderNet = models.GenderNet
)

// Model builders (deterministic synthetic weights; see DESIGN.md §1).
var (
	BuildModel     = models.Build
	BuildGoogLeNet = models.BuildGoogLeNet
	BuildAgeNet    = models.BuildAgeNet
	BuildGenderNet = models.BuildGenderNet
	BuildTinyNet   = models.BuildTinyNet
)

// Network emulation.
type (
	// NetProfile describes a network condition for shaping and
	// estimation.
	NetProfile = netem.Profile
)

// WiFi30Mbps is the paper's emulated network condition.
var WiFi30Mbps = netem.WiFi30Mbps

// Shape wraps a net.Conn with bandwidth pacing.
var Shape = netem.Shape

// Device cost models.
type (
	// Device is a per-layer latency prediction profile.
	Device = costmodel.Device
)

// Calibrated device profiles, plus the paper's §IV.A GPU projection.
var (
	ClientOdroid = costmodel.ClientOdroid
	ServerX86    = costmodel.ServerX86
	ServerX86GPU = costmodel.ServerX86GPU
)

// ProfileDevice builds a Device by measuring a network on the current
// machine (per-layer profiling, Neurosurgeon-style).
var ProfileDevice = costmodel.Profile

// Partition analysis (Neurosurgeon-style).
type (
	// PartitionPlan is a full per-point cost analysis.
	PartitionPlan = partition.Plan
	// PartitionConfig parametrizes the analysis.
	PartitionConfig = partition.Config
)

// AnalyzePartition evaluates every candidate offloading point of a DNN.
var AnalyzePartition = partition.Analyze

// Experiment reproduction (the paper's evaluation section).
type (
	// Fig6Row is one app's inference time under all configurations.
	Fig6Row = sim.Fig6Row
	// ExperimentBreakdown is a Fig 7 phase breakdown.
	ExperimentBreakdown = sim.Breakdown
	// Fig8Row is one model's partition sweep.
	Fig8Row = sim.Fig8Row
	// Table1Row is one column of Table 1.
	Table1Row = sim.Table1Row
	// SweepPoint is one bandwidth setting's outcome in an ablation
	// sweep.
	SweepPoint = sim.SweepPoint
)

// Experiment drivers; each regenerates the corresponding paper artifact.
var (
	Fig1         = sim.Fig1
	Fig6         = sim.Fig6
	Fig6GPU      = sim.Fig6GPU
	Fig7         = sim.Fig7
	Fig8         = sim.Fig8
	Table1       = sim.Table1
	FeatureSizes = sim.FeatureSizes
	// BandwidthSweep evaluates offloading configurations and the dynamic
	// partition decision across bandwidths (ablation).
	BandwidthSweep = sim.BandwidthSweep
)
