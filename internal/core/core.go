// Package core is the paper's contribution assembled as a library:
// snapshot-based offloading sessions for ML web apps against generic edge
// servers. It wires together the web-app runtime, the snapshot mechanism,
// the client offloader (with model pre-sending), the Neurosurgeon-style
// partition chooser for privacy-preserving partial inference, and the edge
// server — behind one small API.
package core

import (
	"errors"
	"fmt"
	"time"

	"websnap/internal/client"
	"websnap/internal/costmodel"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/netem"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/partition"
	"websnap/internal/webapp"
)

// Mode selects how a session executes DNN inference.
type Mode int

// Session modes.
const (
	// ModeLocal runs everything on the client (the paper's Client
	// configuration).
	ModeLocal Mode = iota + 1
	// ModeFull offloads the whole inference handler (offloading with
	// full inference).
	ModeFull
	// ModePartial runs the front part of the DNN locally and offloads
	// the rear (partial inference, privacy-preserving).
	ModePartial
	// ModeAuto picks between full and partial dynamically from the cost
	// model and network status, honoring the privacy constraint when
	// RequireDenature is set.
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeFull:
		return "full"
	case ModePartial:
		return "partial"
	case ModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultCatalog returns a catalog holding the standard ML web-app code
// bundles; edge servers serving these apps use it to resolve snapshots.
func DefaultCatalog() (*webapp.Catalog, error) {
	cat := webapp.NewCatalog()
	if err := cat.Add(mlapp.FullRegistry()); err != nil {
		return nil, err
	}
	if err := cat.Add(mlapp.PartialRegistry()); err != nil {
		return nil, err
	}
	return cat, nil
}

// SessionConfig configures NewSession.
type SessionConfig struct {
	// AppID identifies this app instance to the edge server.
	AppID string
	// ModelName and Model define the DNN the app uses.
	ModelName string
	Model     *nn.Network
	// Labels are the output label strings shown in the DOM.
	Labels []string
	// Mode selects local / full / partial / auto.
	Mode Mode
	// Conn is the connection to the edge server; nil only for ModeLocal.
	Conn *client.Conn
	// PreSend starts model pre-sending immediately (§III.B.1). When
	// false, the first offload pays the model upload inline.
	PreSend bool
	// LocalFallback executes locally if the edge server fails.
	LocalFallback bool

	// Quality selects the model quality tier: nn.PrecFloat32 (default)
	// runs exact float32 kernels, nn.PrecInt8 the calibrated quantized
	// path. The tier is stored as an app global, so it rides every
	// snapshot and the edge server executes offloaded layers at the same
	// precision; layer-boundary features stay float32 on the wire either
	// way. The partition decision uses the matching per-device int8
	// speedups, which moves the optimal split (client gains more from
	// int8 than the server, so more layers stay local).
	Quality nn.Precision

	// SplitLabel pins the partial-inference point (e.g. "1st_pool");
	// empty selects it dynamically via the cost model.
	SplitLabel string
	// RequireDenature keeps at least one DNN layer on the client when
	// choosing a split (the paper's privacy constraint). Only consulted
	// for dynamic selection. ModeAuto with RequireDenature unset may
	// select full offloading.
	RequireDenature bool

	// Network parametrizes the dynamic partition decision, between the
	// paper's calibrated client (costmodel.ClientOdroid) and server
	// (costmodel.ServerX86) profiles; the zero value selects 30 Mbps Wi-Fi.
	Network netem.Profile

	// Audit, when non-nil, receives one structured decision event per
	// inference request: the chosen path (local/full/partial/
	// fallback), the cost model's latency prediction for that path, and
	// the measured outcome.
	Audit *obs.Auditor
}

func (cfg *SessionConfig) applyDefaults() {
	if cfg.Network.BandwidthBitsPerSec == 0 && cfg.Network.Latency == 0 {
		cfg.Network = netem.WiFi30Mbps
	}
	if cfg.Quality == "" {
		cfg.Quality = nn.PrecFloat32
	}
}

// Session is one running ML web app with an offloading strategy attached.
type Session struct {
	cfg  SessionConfig
	app  *webapp.App
	off  *client.Offloader // nil in ModeLocal
	mode Mode              // resolved mode (auto collapses to full/partial)
	// split describes the chosen partition point in partial mode.
	split *partition.Candidate
	// predicted is the cost model's end-to-end latency estimate for the
	// resolved mode, recorded on audit decisions (zero when unknown).
	predicted time.Duration
}

// NewSession builds the app, resolves the offloading strategy, and (when
// configured) starts pre-sending models.
func NewSession(cfg SessionConfig) (*Session, error) {
	cfg.applyDefaults()
	if cfg.Model == nil || cfg.ModelName == "" {
		return nil, errors.New("core: model and model name required")
	}
	if cfg.Mode == 0 {
		return nil, errors.New("core: mode required")
	}
	if cfg.Mode != ModeLocal && cfg.Conn == nil {
		return nil, fmt.Errorf("core: mode %s requires a connection", cfg.Mode)
	}
	s := &Session{cfg: cfg, mode: cfg.Mode}
	if err := s.resolveMode(); err != nil {
		return nil, err
	}
	if err := s.buildApp(); err != nil {
		return nil, err
	}
	if err := s.buildOffloader(); err != nil {
		return nil, err
	}
	if s.off != nil && cfg.PreSend {
		s.off.StartPreSend()
	}
	return s, nil
}

// resolveMode collapses ModeAuto into full or partial using the partition
// estimator, selects the split point for partial mode, and notes the cost
// model's prediction for the resolved mode. The network is analysed once.
func (s *Session) resolveMode() error {
	// Local and full sessions need the cost model only for the audit's
	// predicted-vs-measured comparison.
	audited := s.cfg.Audit != nil
	switch {
	case s.mode == ModeLocal:
		if audited {
			s.predicted, _ = costmodel.ClientOdroid.NetworkTime(s.cfg.Model)
		}
		return nil
	case s.mode == ModeFull && !audited:
		return nil
	}
	plan, err := s.analyze()
	if err != nil {
		if s.mode == ModeFull {
			return nil // only the prediction is lost
		}
		return err
	}
	switch {
	case s.mode == ModeFull:
	case s.mode == ModePartial && s.cfg.SplitLabel != "":
		c, ok := plan.ByLabel(s.cfg.SplitLabel)
		if !ok {
			return fmt.Errorf("core: model %q has no partition point %q", s.cfg.ModelName, s.cfg.SplitLabel)
		}
		s.split = &c
	default:
		best, err := plan.Choose(s.cfg.RequireDenature || s.mode == ModePartial)
		if err != nil {
			return err
		}
		if s.mode == ModeAuto && best.Point.Index == 0 {
			s.mode = ModeFull
		} else {
			s.mode = ModePartial
			s.split = &best
		}
	}
	if s.mode == ModeFull {
		// Candidate 0 is the Input split: every layer on the server.
		s.predicted = plan.Candidates[0].Total
	} else {
		s.predicted = s.split.Total
	}
	return nil
}

func (s *Session) analyze() (partition.Plan, error) {
	// Fold the server's advertised queueing delay (if a fresh load hint has
	// already arrived on this connection) into the decision: a loaded
	// server pushes the optimum toward keeping layers on the client.
	var queueDelay time.Duration
	if hint, ok := s.cfg.Conn.FreshLoad(); ok {
		queueDelay = hint.QueueingDelay()
	}
	return partition.Analyze(s.cfg.Model, partition.Config{
		Client:             costmodel.ClientOdroid,
		Server:             costmodel.ServerX86,
		Network:            s.cfg.Network,
		StateOverheadBytes: 64 << 10,
		ResultBytes:        4 << 10,
		ServerQueueDelay:   queueDelay,
		Precision:          s.cfg.Quality,
	})
}

func (s *Session) buildApp() error {
	var err error
	switch s.mode {
	case ModeLocal, ModeFull:
		s.app, err = mlapp.NewFullApp(s.cfg.AppID, s.cfg.ModelName, s.cfg.Model, s.cfg.Labels)
	case ModePartial:
		s.app, err = mlapp.NewPartialApp(s.cfg.AppID, s.cfg.ModelName, s.cfg.Model,
			s.split.Point.Index, s.cfg.Labels)
	default:
		err = fmt.Errorf("core: unsupported mode %s", s.mode)
	}
	if err == nil && s.cfg.Quality != nn.PrecFloat32 {
		err = mlapp.SetQuality(s.app, s.cfg.Quality)
	}
	return err
}

func (s *Session) buildOffloader() error {
	if s.mode == ModeLocal {
		return nil
	}
	opts := client.Options{
		LocalFallback:    s.cfg.LocalFallback,
		Audit:            s.cfg.Audit,
		PredictedOffload: s.predicted,
	}
	switch s.mode {
	case ModeFull:
		opts.OffloadEventTypes = []string{mlapp.EventClick}
		opts.Models = []client.ModelToSend{{Name: s.cfg.ModelName, Net: s.cfg.Model}}
		opts.AuditPath = obs.PathFull
	case ModePartial:
		rearName := s.cfg.ModelName + mlapp.RearSuffix
		rear, ok := s.app.Model(rearName)
		if !ok {
			return fmt.Errorf("core: rear model %q missing", rearName)
		}
		opts.OffloadEventTypes = []string{mlapp.EventFrontComplete}
		opts.Models = []client.ModelToSend{{Name: rearName, Net: rear}}
		opts.ExcludeModels = []string{s.cfg.ModelName + mlapp.FrontSuffix}
		opts.AuditPath = obs.PathPartial
		opts.SplitLabel = s.split.Point.Label
	}
	off, err := client.NewOffloader(s.app, s.cfg.Conn, opts)
	if err != nil {
		return err
	}
	s.off = off
	return nil
}

// Mode returns the session's resolved mode (auto collapses at creation).
func (s *Session) Mode() Mode { return s.mode }

// SplitLabel returns the chosen partition point in partial mode ("" in
// other modes).
func (s *Session) SplitLabel() string {
	if s.split == nil {
		return ""
	}
	return s.split.Point.Label
}

// App exposes the underlying web app (DOM inspection, custom events).
func (s *Session) App() *webapp.App { return s.app }

// WaitForModelUpload blocks until pre-sent models have been acknowledged.
func (s *Session) WaitForModelUpload() error {
	if s.off == nil {
		return nil
	}
	return s.off.WaitForAcks()
}

// Stats returns offloading counters (zero value in ModeLocal).
func (s *Session) Stats() client.Stats {
	if s.off == nil {
		return client.Stats{}
	}
	return s.off.Stats()
}

// Classify loads an image into the app, clicks the inference button, and
// drives the app (offloading as configured) until the result is on screen.
func (s *Session) Classify(img webapp.Float32Array) (string, error) {
	if err := mlapp.LoadImage(s.app, img); err != nil {
		return "", err
	}
	s.app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
	var err error
	if s.off != nil {
		_, err = s.off.Run(16)
	} else {
		// ModeLocal sessions have no offloader: their one placement is the
		// device itself, through the same funnel, so the audit covers
		// every path.
		local := &client.Placement{Path: obs.PathLocal, Reason: "mode-local", Predicted: s.predicted,
			Run: func() (client.Outcome, error) {
				_, err := s.app.Run(16)
				return client.Outcome{}, err
			}}
		_, err = client.Funnel{AppID: s.cfg.AppID, Audit: s.cfg.Audit}.Do(func(error) *client.Placement {
			p := local
			local = nil
			return p
		})
	}
	if err != nil {
		return "", err
	}
	res := mlapp.Result(s.app)
	if res == "" {
		return "", errors.New("core: inference produced no result")
	}
	return res, nil
}

// NewEdgeServer constructs a pre-installed edge server that can serve the
// standard ML web apps, logging to logger (nil is silent).
func NewEdgeServer(logger *obs.Logger) (*edge.Server, error) {
	cat, err := DefaultCatalog()
	if err != nil {
		return nil, err
	}
	return edge.NewServer(edge.Config{Catalog: cat, Installed: true, Logger: logger})
}
