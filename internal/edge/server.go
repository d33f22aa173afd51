// Package edge implements the paper's offloading server program: the
// process running on a generic edge server that accepts connections from
// client devices, stores pre-sent NN models, executes incoming snapshots on
// the server's browser runtime, and returns the results — as deltas against
// the state each snapshot carried (§III).
package edge

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/sched"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
	"websnap/internal/vmsynth"
	"websnap/internal/webapp"
)

// Config parametrizes a Server.
type Config struct {
	// Catalog resolves snapshot code hashes to app code bundles.
	Catalog *webapp.Catalog
	// Installed indicates the offloading system is pre-installed. When
	// false, the server only accepts MsgInstallOverlay until a VM
	// overlay has been synthesized (§III.B.3).
	Installed bool
	// Synthesizer performs VM synthesis for on-demand installation. May
	// be nil when Installed is true.
	Synthesizer *vmsynth.Synthesizer
	// ModelDir, when non-empty, persists pre-sent model files to disk so
	// they survive server restarts ("the server saves the files",
	// §III.B.1).
	ModelDir string
	// MaxStoreBytes bounds the session store (the pre-sent models, which on
	// a fleet-joined server are also the blobs peers fetch) in bytes; a
	// model is charged its weights plus the packed panels of its
	// convolutions (nn.Network.ResidentBytes). Least-recently-used entries
	// are evicted at the cap. Zero means unbounded (the pre-bounded-store
	// behavior).
	MaxStoreBytes int64
	// MaxStreams caps the concurrent logical streams one connection may
	// have in flight; further frames wait in the connection's read loop
	// (TCP backpressure is the flow control). Zero selects
	// DefaultMaxStreams.
	MaxStreams int
	// MaxQueueBytes bounds the summed decoded size of snapshots waiting
	// in the admission queue; zero means slots-only admission.
	MaxQueueBytes int64
	// MaxConns caps concurrently served client connections; beyond it,
	// new connections receive an error and are closed. Zero means
	// unlimited.
	MaxConns int
	// IdleTimeout closes a connection when no request arrives for this
	// long: it bounds the wait for the FIRST byte of the next frame. Zero
	// means no timeout.
	IdleTimeout time.Duration
	// TransferTimeout bounds the gap between successive reads WITHIN a
	// frame once its first byte has arrived. A multi-MB snapshot upload on
	// a slow link stays alive as long as bytes keep trickling in at least
	// this often; a stalled peer is still cut off. Zero selects
	// IdleTimeout (so a bare IdleTimeout config keeps its old meaning per
	// chunk rather than per frame).
	TransferTimeout time.Duration
	// Workers sizes the scheduler's worker pool. Zero selects
	// DefaultWorkers.
	Workers int
	// QueueDepth bounds the scheduler's admission queue. Zero selects the
	// scheduler default. A request that finds the queue full is rejected
	// at once with an overload error and a load hint, and the client runs
	// the event locally: that is the server's only overload behavior.
	QueueDepth int
	// Logger receives the server's JSON-line logs: per-request lines at
	// debug level, failures of its own at warn and above. Nil is silent.
	Logger *slog.Logger
	// TraceLog, when non-nil, receives one JSON line per served snapshot
	// offload or chain hop — its traceId, appId, seq and span tree — the
	// structured feed behind `edged -trace-log`.
	TraceLog io.Writer
	// Locator finds fleet peers holding a blob (typically a
	// fleet.RegistryClient); nil limits resolution to the local store.
	Locator BlobLocator
	// AdvertiseAddr is this server's own fleet-advertised address. Setting
	// it is what joins the server to a fleet's blob sharing: the session
	// store's pre-sent models are then advertised on registry heartbeats
	// under their content hashes and served to peers via MsgBlobGet, and a
	// pre-sent key the store misses is fetched from a peer. Every server
	// answers a key its own store holds. The peer-fetch path skips this
	// address when the blob index lists us as a holder.
	AdvertiseAddr string
	// PeerDial overrides the transport for peer blob fetches (tests and
	// chaos injection); nil means TCP.
	PeerDial func(addr string, timeout time.Duration) (net.Conn, error)
	// SLO, when non-nil, receives the server-side total (the span root) of
	// every served snapshot offload and chain hop; /slo (cmd/edged) serves
	// its burn state and /readyz surfaces it. The server only feeds
	// observations — construction (objective, windows, OnBurn) is the
	// embedder's.
	SLO *telemetry.SLO
	// Flight, when non-nil, captures the span trees of slow, failed, and
	// shed requests in a bounded in-memory ring served at /debug/flight.
	// "Slow" means the server-side total exceeded the SLO objective (no
	// SLO, no slow capture; errors and sheds are captured regardless).
	Flight *telemetry.FlightRecorder
}

// DefaultWorkers is the worker-pool size when Config.Workers is zero.
const DefaultWorkers = 4

// DefaultMaxStreams is the per-connection concurrent-stream cap when
// Config.MaxStreams is zero.
const DefaultMaxStreams = 256

// Server is the edge server's offloading program.
type Server struct {
	cfg   Config
	store *SessionStore
	sched *sched.Scheduler
	// conns runs the connection lifecycle; it also admits each request
	// between dispatch and response write, so Close lets in-flight
	// sessions flush their final frames before terminating connections.
	conns protocol.ConnSet

	installedMu sync.RWMutex
	installed   bool

	// connSlots is a semaphore bounding concurrent connections; nil when
	// unlimited.
	connSlots chan struct{}

	// stages holds one latency histogram per protocol.EdgeStages op, for
	// /metrics and fleet digests.
	stages map[string]*trace.Histogram
	// traceLogMu serializes JSON lines onto Config.TraceLog.
	traceLogMu sync.Mutex

	// log is Config.Logger, or obs.Discard.
	log *slog.Logger

	// reg is the server's metrics registry; every counter, gauge, and
	// stage histogram below exposes through it.
	reg *obs.Registry
	// Operation counters, registered on reg (registration order defines
	// exposition order and is part of the scrape contract).
	connsServed, connsRefused *obs.Counter
	modelsStored              *obs.Counter
	snapshotsExecuted         *obs.Counter
	installs, errorsAnswered  *obs.Counter
	// Fleet blob-sharing counters (zero outside a fleet).
	refPreSendHits, refPreSendMisses    *obs.Counter
	presendRaw, presendPacked           *obs.Counter
	blobPeerFetches, blobPeerFetchBytes *obs.Counter
	blobsServed                         *obs.Counter
	// Stream counters: requests dispatched as streams, and the live
	// concurrent-stream gauge behind them.
	muxRequests *obs.Counter
	muxActive   atomic.Int64

	// Chain relay counters: layer ranges executed as chain hops, boundary
	// tensors relayed downstream, and relays that failed.
	chainExecs, chainRelays, chainRelayFailures *obs.Counter

	// start anchors the uptime reported in telemetry digests.
	start time.Time
}

// Metrics is a snapshot of the server's operation counters.
type Metrics struct {
	// ConnsServed counts accepted (served) connections.
	ConnsServed int64
	// ConnsRefused counts connections turned away at the MaxConns cap.
	ConnsRefused int64
	// ModelsStored counts pre-send requests handled.
	ModelsStored int64
	// SnapshotsExecuted counts snapshot offloads executed.
	SnapshotsExecuted int64
	// Installs counts completed VM-synthesis installations.
	Installs int64
	// Errors counts requests answered with MsgError.
	Errors int64
	// MuxRequests counts every request dispatched (each is a stream).
	//
	// Deprecated: kept only because benchmark/layers.go:468 still reads
	// it, until a benchmark PR drops the reference.
	MuxRequests int64
	// StoreBytes and StoreEvictions mirror the bounded session store: its
	// current byte charge and how many entries the byte cap has evicted.
	StoreBytes     int64
	StoreEvictions int64
	// PreSendRawBytes and PreSendPackedBytes are the wire bytes of uploaded
	// model weights that travelled raw and packed
	// (websnap_presend_bytes_total).
	PreSendRawBytes, PreSendPackedBytes int64
}

// Metrics returns a consistent-enough snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		ConnsServed:        s.connsServed.Value(),
		ConnsRefused:       s.connsRefused.Value(),
		ModelsStored:       s.modelsStored.Value(),
		SnapshotsExecuted:  s.snapshotsExecuted.Value(),
		Installs:           s.installs.Value(),
		Errors:             s.errorsAnswered.Value(),
		MuxRequests:        s.muxRequests.Value(),
		StoreBytes:         s.store.Bytes(),
		StoreEvictions:     s.store.Evictions(),
		PreSendRawBytes:    s.presendRaw.Value(),
		PreSendPackedBytes: s.presendPacked.Value(),
	}
}

// Registry exposes the server's metrics registry, so embedders can add
// their own families to the same scrape.
func (s *Server) Registry() *obs.Registry { return s.reg }

// initMetrics builds the server's metric families. Registration order is
// the exposition order of the pre-registry handler and must not change:
// existing scrapes depend on it byte-for-byte.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	s.connsServed = r.Counter("websnap_conns_served_total", "Accepted client connections.")
	s.connsRefused = r.Counter("websnap_conns_refused_total", "Connections refused at the MaxConns cap.")
	s.modelsStored = r.Counter("websnap_models_stored_total", "Model pre-send requests handled.")
	s.snapshotsExecuted = r.Counter("websnap_snapshots_executed_total", "Full snapshot offloads executed.")
	s.installs = r.Counter("websnap_installs_total", "Completed VM-synthesis installations.")
	s.errorsAnswered = r.Counter("websnap_errors_total", "Requests answered with an error frame.")
	r.CounterFunc("websnap_sched_submitted_total", "Tasks admitted to the scheduler queue.",
		func() int64 { return s.sched.Stats().Submitted })
	r.CounterFunc("websnap_sched_rejected_total", "Tasks rejected at admission.",
		func() int64 { return s.sched.Stats().Rejected })
	r.CounterFunc("websnap_sched_executed_total", "Tasks completed.",
		func() int64 { return s.sched.Stats().Executed })
	r.GaugeFunc("websnap_installed", "Whether the offloading system is installed (1) or not (0).",
		func() float64 {
			if s.Installed() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("websnap_queue_depth", "Tasks currently waiting in the admission queue.",
		func() float64 { return float64(s.sched.Stats().QueueDepth) })
	r.GaugeFunc("websnap_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(s.sched.Stats().QueueCap) })
	r.GaugeFunc("websnap_workers", "Worker pool size.",
		func() float64 { return float64(s.sched.Stats().Workers) })
	r.GaugeFunc("websnap_busy_workers", "Workers currently executing a task.",
		func() float64 { return float64(s.sched.Stats().Busy) })
	r.GaugeFunc("websnap_queueing_delay_seconds", "Estimated queueing delay for a request submitted now.",
		func() float64 { return s.sched.Stats().QueueingDelay().Seconds() })
	stages := r.HistogramVec("websnap_stage_seconds", "Offload pipeline stage latency in seconds.", "stage")
	s.stages = make(map[string]*trace.Histogram)
	for _, op := range protocol.EdgeStages() {
		s.stages[op] = &trace.Histogram{}
		stages.Attach(s.stages[op], op)
	}
	// Fleet families register after everything above: the pre-fleet
	// exposition prefix stays byte-identical for existing scrapes.
	s.refPreSendHits = r.Counter("websnap_ref_presend_hits_total",
		"Reference-only model pre-sends resolved without the client's bytes.")
	s.refPreSendMisses = r.Counter("websnap_ref_presend_misses_total",
		"Reference-only model pre-sends answered NeedBlob (client re-sent in full).")
	s.blobPeerFetches = r.Counter("websnap_blob_peer_fetches_total",
		"Blobs fetched from fleet peers.")
	s.blobPeerFetchBytes = r.Counter("websnap_blob_peer_fetch_bytes_total",
		"Bytes fetched from fleet peers.")
	s.blobsServed = r.Counter("websnap_blobs_served_total",
		"Blob fetches served to fleet peers.")
	// Session-store and multiplexing families register after the fleet
	// block for the same reason: the earlier exposition prefix stays
	// byte-identical for existing scrapes.
	r.GaugeFunc("websnap_store_bytes", "Session store charge in bytes: each pre-sent model's weights plus its packed convolution panels.",
		func() float64 { return float64(s.store.Bytes()) })
	r.GaugeFunc("websnap_store_byte_cap", "Session store byte cap (0 = unbounded).",
		func() float64 { return float64(s.store.MaxBytes()) })
	r.GaugeFunc("websnap_store_entries", "Distinct content-addressed payloads in the session store.",
		func() float64 { return float64(s.store.Entries()) })
	r.CounterFunc("websnap_store_evictions_total", "Session-store entries evicted at the byte cap.",
		func() int64 { return s.store.Evictions() })
	r.GaugeFunc("websnap_queue_bytes", "Decoded snapshot bytes waiting in the admission queue.",
		func() float64 { return float64(s.sched.Stats().QueueBytes) })
	s.muxRequests = r.Counter("websnap_mux_requests_total",
		"Requests dispatched concurrently off multiplexed connections.")
	r.GaugeFunc("websnap_mux_streams", "Logical offload streams currently in flight across multiplexed connections.",
		func() float64 { return float64(s.muxActive.Load()) })
	// Chain families register last, after the mux block, keeping every
	// earlier exposition prefix byte-identical for existing scrapes.
	s.chainExecs = r.Counter("websnap_chain_execs_total",
		"Layer ranges executed as multi-hop chain hops.")
	s.chainRelays = r.Counter("websnap_chain_relays_total",
		"Boundary tensors relayed to downstream chain hops.")
	s.chainRelayFailures = r.Counter("websnap_chain_relay_failures_total",
		"Chain relays that failed (downstream unreachable or errored).")
	// The scheduler counters and the byte cap no other family carried,
	// appended so every earlier family keeps its place.
	r.CounterFunc("websnap_sched_cancelled_total", "Queued tasks cancelled at shutdown.",
		func() int64 { return s.sched.Stats().Cancelled })
	r.GaugeFunc("websnap_queue_byte_cap", "Admission queue byte cap (0 = slots-only admission).",
		func() float64 { return float64(s.sched.Stats().QueueByteCap) })
	presend := r.CounterVec("websnap_presend_bytes_total",
		"Wire bytes of uploaded model weights, by body encoding.", "encoding")
	s.presendRaw = presend.With(protocol.EncodingName(protocol.EncodingRaw))
	s.presendPacked = presend.With(protocol.EncodingName(protocol.EncodingPacked))
}

// NewServer creates an offloading server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("edge: nil catalog")
	}
	if !cfg.Installed && cfg.Synthesizer == nil {
		return nil, errors.New("edge: not installed and no synthesizer for on-demand installation")
	}
	store := newSessionStore(cfg.MaxStoreBytes)
	if cfg.ModelDir != "" {
		var err error
		store, err = newSessionStoreDir(cfg.ModelDir, cfg.MaxStoreBytes)
		if err != nil {
			return nil, err
		}
	}
	srv := &Server{
		cfg:       cfg,
		store:     store,
		log:       cmp.Or(cfg.Logger, obs.Discard),
		installed: cfg.Installed,
		start:     time.Now(),
	}
	if cfg.MaxConns > 0 {
		srv.connSlots = make(chan struct{}, cfg.MaxConns)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	var err error
	srv.sched, err = sched.New(sched.Config{
		Workers:       workers,
		QueueDepth:    cfg.QueueDepth,
		MaxQueueBytes: cfg.MaxQueueBytes,
	}, srv.execTask)
	if err != nil {
		return nil, err
	}
	srv.initMetrics()
	return srv, nil
}

// SchedStats returns the scheduler's current state and counters.
func (s *Server) SchedStats() sched.Stats { return s.sched.Stats() }

// loadHint summarizes the scheduler's state for response headers.
func (s *Server) loadHint() *protocol.LoadHint { return s.sched.Stats().Hint() }

// Store exposes the server's session store (for tests and inspection).
func (s *Server) Store() *SessionStore { return s.store }

// Installed reports whether the offloading system is ready to serve
// snapshots.
func (s *Server) Installed() bool {
	s.installedMu.RLock()
	defer s.installedMu.RUnlock()
	return s.installed
}

// NotReady reports why the server cannot execute an offload submitted now,
// or nil when it can: the offloading system must be installed and the
// scheduler accepting work. It is the /readyz signal — a live process that
// is not ready should be taken out of rotation, not restarted.
func (s *Server) NotReady() error {
	switch {
	case !s.Installed():
		return errors.New("offloading system not installed")
	case !s.sched.Accepting():
		return errors.New("scheduler draining")
	}
	return nil
}

// Serve accepts connections on ln until Close is called. It blocks; run it
// in a goroutine and call Close to stop.
func (s *Server) Serve(ln net.Listener) error { return s.conns.Serve(ln, s.serveConn) }

// Close stops accepting and shuts down gracefully: the scheduler drains —
// in-flight sessions finish, queued ones are cancelled and answered with an
// Error frame — then connections are terminated and all goroutines joined.
func (s *Server) Close() error { return s.conns.Close(s.sched.Close) }

// overloadError decorates a scheduler admission failure with the overload
// marker that tells the client to execute locally; its Error frame also
// carries the load hint.
type overloadError struct {
	err        error
	overloaded bool
}

func (e *overloadError) Error() string { return e.err.Error() }
func (e *overloadError) Unwrap() error { return e.err }

// recordFailure deposits a failed request in the flight recorder with its
// span tree as far as it got: shed requests (a full admission queue
// rejected them) under the shed reason, everything else as an error. The
// trace ID, when the request carried one, joins the entry so operators can
// line it up with client-side traces.
func (s *Server) recordFailure(req *request, err error, oe *overloadError) {
	if s.cfg.Flight == nil {
		return
	}
	reason := telemetry.FlightError
	if oe != nil && oe.overloaded {
		reason = telemetry.FlightShed
	}
	// A copy, closed at the failure: the request's own root is never
	// changed once a consumer may hold it.
	span := *req.span
	span.Micros = time.Since(req.start).Microseconds()
	s.cfg.Flight.Record(telemetry.FlightEntry{
		TraceID: req.env.TraceID,
		Reason:  reason,
		Note:    req.msg.Type.String() + ": " + err.Error(),
		Span:    &span,
	})
}

// dispatch routes one request to its handler with the header dispatchStream
// decoded.
func (s *Server) dispatch(req *request) (protocol.Message, error) {
	msg := req.msg
	// Pings work before installation: probes need to learn the install
	// state without tripping an error.
	if msg.Type != protocol.MsgPing && !s.Installed() && msg.Type != protocol.MsgInstallOverlay {
		return protocol.Message{}, errors.New("offloading system not installed on this edge server")
	}
	if req.hdrErr != nil {
		return protocol.Message{}, req.hdrErr
	}
	if msg.Err != nil { // a chunked body that does not match its checksum
		return protocol.Message{}, msg.Err
	}
	switch hdr := req.hdr.(type) {
	case *protocol.PingHeader:
		return s.handlePing(hdr)
	case *protocol.ModelPreSendHeader:
		return s.handleModelPreSend(req, hdr)
	case *protocol.SnapshotHeader:
		if msg.Type == protocol.MsgSnapshot {
			return s.handleOffload(req, hdr)
		}
	case *protocol.InstallOverlayHeader:
		return s.handleInstall(msg, hdr)
	case *protocol.BlobGetHeader:
		return s.handleBlobGet(req, hdr)
	case *protocol.ChainExecHeader:
		return s.handleChainExec(req, hdr)
	}
	return protocol.Message{}, fmt.Errorf("unexpected message %s", msg.Type)
}

// handlePing answers a load probe with the server's install state and
// scheduling load.
func (s *Server) handlePing(hdr *protocol.PingHeader) (protocol.Message, error) {
	return protocol.Encode(protocol.MsgPong, protocol.PongHeader{
		Installed: s.Installed(),
		Load:      s.loadHint(),
		Fleet:     s.fleetEnabled(),
		Seq:       hdr.Seq,
		Hints:     protocol.HintPackedBody,
	}, nil)
}

// StatsDigest snapshots the server's telemetry for one registry heartbeat:
// every stage histogram in mergeable bucket form, the decision mix, and the
// live queue depth and store charge. cmd/edged wires this as the fleet
// agent's Stats supplier; fleetd merges the digests into fleet-wide
// rollups. Counters are cumulative, so the registry keeping only the latest
// digest per member loses nothing.
func (s *Server) StatsDigest() *protocol.StatsDigest {
	m := s.Metrics()
	st := s.sched.Stats()
	return &protocol.StatsDigest{
		Stages: telemetry.StageDigests(s.stages),
		Decisions: map[string]uint64{
			"snapshot_full": uint64(m.SnapshotsExecuted),
			"shed":          uint64(st.Rejected),
			"error":         uint64(m.Errors),
			"ref_hit":       uint64(s.refPreSendHits.Value()),
			"ref_miss":      uint64(s.refPreSendMisses.Value()),
			"peer_fetch":    uint64(s.blobPeerFetches.Value()),
		},
		QueueDepth:   st.QueueDepth,
		StoreBytes:   s.store.Bytes(),
		UptimeMillis: time.Since(s.start).Milliseconds(),
	}
}

// handleInstall performs on-demand installation by VM synthesis: the client
// ships a VM overlay containing the offloading system; once synthesized,
// the server is customized and starts serving offload requests (§III.B.3).
func (s *Server) handleInstall(msg protocol.Message, hdr *protocol.InstallOverlayHeader) (protocol.Message, error) {
	if s.Installed() {
		return protocol.Encode(protocol.MsgInstallDone,
			protocol.InstallDoneHeader{SynthesisMillis: 0, Seq: hdr.Seq}, nil)
	}
	if s.cfg.Synthesizer == nil {
		return protocol.Message{}, errors.New("no synthesizer available")
	}
	res, err := s.cfg.Synthesizer.Synthesize(hdr.BaseImage, msg.Body)
	if err != nil {
		return protocol.Message{}, fmt.Errorf("vm synthesis: %w", err)
	}
	s.installedMu.Lock()
	s.installed = true
	s.installedMu.Unlock()
	s.installs.Inc()
	s.log.Info("edge: offloading system installed via VM synthesis", slog.Any("synthesisMillis", res.SynthesisTime.Milliseconds()))
	return protocol.Encode(protocol.MsgInstallDone, protocol.InstallDoneHeader{
		BaseImage:       hdr.BaseImage,
		SynthesisMillis: res.SynthesisTime.Milliseconds(),
		Seq:             hdr.Seq,
	}, nil)
}
