// Package edge implements the paper's offloading server program: the
// process running on a generic edge server that accepts connections from
// client devices, stores pre-sent NN models, executes incoming snapshots on
// the server's browser runtime, and returns the results — as deltas against
// the state each snapshot carried (§III).
package edge

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/nn"
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
	Logger *obs.Logger
	// TraceLog, when non-nil, receives one JSON line per completed
	// offload request with the server-side span breakdown (decode, queue,
	// execute, encode) — the structured feed behind `edged -trace-log`.
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
	// SLO, when non-nil, receives every completed offload's server-side
	// total latency; /slo (cmd/edged) serves its burn state and /readyz
	// surfaces it. The server only feeds observations — construction
	// (objective, windows, OnBurn) is the embedder's.
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
	quit  chan struct{}
	wg    sync.WaitGroup
	// reqWG tracks requests between dispatch and response write, so Close
	// can let in-flight sessions flush their final frames before
	// terminating connections.
	reqWG  sync.WaitGroup
	mu     sync.Mutex
	ln     net.Listener
	closed bool

	installedMu sync.RWMutex
	installed   bool

	// connSlots is a semaphore bounding concurrent connections; nil when
	// unlimited.
	connSlots chan struct{}

	// connsMu guards conns, the set of live client connections, so Close
	// can terminate them instead of waiting forever on idle readers.
	connsMu sync.Mutex
	conns   map[net.Conn]struct{}

	// rec aggregates server-side stage latencies (queue, execute) across
	// every offload request, for /metrics export.
	rec *trace.Recorder
	// traceLogMu serializes JSON lines onto Config.TraceLog.
	traceLogMu sync.Mutex

	// log is Config.Logger (nil-safe).
	log *obs.Logger

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
}

// Metrics returns a consistent-enough snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		ConnsServed:       s.connsServed.Value(),
		ConnsRefused:      s.connsRefused.Value(),
		ModelsStored:      s.modelsStored.Value(),
		SnapshotsExecuted: s.snapshotsExecuted.Value(),
		Installs:          s.installs.Value(),
		Errors:            s.errorsAnswered.Value(),
		MuxRequests:       s.muxRequests.Value(),
		StoreBytes:        s.store.Bytes(),
		StoreEvictions:    s.store.Evictions(),
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
	for _, stage := range trace.AllStages() {
		stages.Attach(s.rec.Stage(stage), string(stage))
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
		log:       cfg.Logger,
		quit:      make(chan struct{}),
		installed: cfg.Installed,
		conns:     make(map[net.Conn]struct{}),
		rec:       trace.NewRecorder(),
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
func (s *Server) loadHint() *protocol.LoadHint {
	st := s.sched.Stats()
	return &protocol.LoadHint{
		QueueDepth:        st.QueueDepth,
		QueueCap:          st.QueueCap,
		Workers:           st.Workers,
		Busy:              st.Busy,
		EWMAServiceMillis: float64(st.Service.Mean) / float64(time.Millisecond),
		QueueingMillis:    float64(st.QueueingDelay()) / float64(time.Millisecond),
		Saturated:         st.Saturated(),
	}
}

// Store exposes the server's session store (for tests and inspection).
func (s *Server) Store() *SessionStore { return s.store }

// Installed reports whether the offloading system is ready to serve
// snapshots.
func (s *Server) Installed() bool {
	s.installedMu.RLock()
	defer s.installedMu.RUnlock()
	return s.installed
}

// Ready reports whether the server can execute an offload submitted now:
// the offloading system is installed and the scheduler is accepting work.
// It is the /readyz signal — a live process that is not Ready should be
// taken out of rotation, not restarted.
func (s *Server) Ready() bool {
	return s.Installed() && s.sched.Accepting()
}

// Serve accepts connections on ln until Close is called. It blocks; run it
// in a goroutine and call Close to stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("edge: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return fmt.Errorf("edge: accept: %w", err)
			}
		}
		// Join wg under the lock Close takes before it waits, so an Add
		// can never race the Wait; a conn accepted after Close is dropped.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		s.mu.Unlock()
		if s.connSlots != nil {
			select {
			case s.connSlots <- struct{}{}:
			default:
				// At capacity: refuse politely and move on.
				s.connsRefused.Inc()
				go func() {
					defer s.wg.Done()
					defer conn.Close()
					msg, err := protocol.Encode(protocol.MsgError,
						protocol.ErrorHeader{Message: "edge server at connection capacity"}, nil)
					if err == nil {
						if err := protocol.Write(conn, msg); err != nil {
							s.log.Debug("edge: refusal write failed", obs.Err(err))
						}
					}
				}()
				continue
			}
		}
		s.trackConn(conn, true)
		s.connsServed.Inc()
		go func() {
			defer s.wg.Done()
			defer s.trackConn(conn, false)
			defer conn.Close()
			if s.connSlots != nil {
				defer func() { <-s.connSlots }()
			}
			s.handleConn(conn)
		}()
	}
}

// Close stops accepting and shuts down gracefully: the scheduler drains —
// in-flight sessions finish, queued ones are cancelled and answered with an
// Error frame — then connections are terminated and all goroutines joined.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Drain the scheduler: running tasks complete, queued tasks fail
	// with ErrClosed. Their waiting connection handlers then write the
	// final result or Error frame, which reqWG tracks.
	s.sched.Close()
	s.reqWG.Wait()
	// Terminate live connections: without this, Close would wait forever
	// on clients idling in between requests.
	s.connsMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	return err
}

// trackConn adds or removes a live connection from the close set.
func (s *Server) trackConn(conn net.Conn, add bool) {
	s.connsMu.Lock()
	defer s.connsMu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// deadlineReader reads from a net.Conn under two timeout regimes: waiting
// for a frame's first byte is bounded by idle, while each subsequent read —
// once the frame has started arriving — is bounded by transfer. Setting the
// deadline per read (not once per frame) is what keeps a legitimate multi-MB
// upload on a slow link alive: the old single up-front deadline killed any
// transfer whose total time exceeded the idle timeout, no matter how
// steadily bytes were flowing.
//
// The connection's frames are read through a buffer on top of it, so a
// frame may start arriving before it is read: its first bytes came in with
// the previous frame's tail. Such a frame is on the transfer clock from the
// start (startFrame).
type deadlineReader struct {
	conn           net.Conn
	idle, transfer time.Duration
	// inFrame marks that the current frame's first byte has been read, so
	// reads are on the transfer clock until startFrame resets it.
	inFrame bool
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	d := r.idle
	if r.inFrame {
		d = r.transfer
	}
	if d > 0 {
		if err := r.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
			return 0, err
		}
	}
	n, err := r.conn.Read(p)
	if n > 0 {
		r.inFrame = true
	}
	return n, err
}

// startFrame puts the next frame on the idle clock, or — when buffered
// bytes of it are already in hand — on the transfer clock.
func (r *deadlineReader) startFrame(buffered int) { r.inFrame = buffered > 0 }

// connWriter serializes response frames onto one connection: handler
// goroutines finish in arbitrary order and interleave whole frames under
// the mutex.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *connWriter) write(msg protocol.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return protocol.Write(w.conn, msg)
}

// maxStreams resolves the per-connection concurrent-stream cap.
func (s *Server) maxStreams() int {
	if s.cfg.MaxStreams > 0 {
		return s.cfg.MaxStreams
	}
	return DefaultMaxStreams
}

// handleConn serves one client connection: a sequence of framed requests,
// each answered with exactly one response. Every request is a logical
// stream dispatched on its own goroutine, so the response order follows
// completion, not arrival, and the client demultiplexes by the echoed Seq.
func (s *Server) handleConn(conn net.Conn) {
	transfer := s.cfg.TransferTimeout
	if transfer <= 0 {
		transfer = s.cfg.IdleTimeout
	}
	dr := &deadlineReader{conn: conn, idle: s.cfg.IdleTimeout, transfer: transfer}
	br := protocol.NewReader(dr)
	cw := &connWriter{conn: conn}
	// slots caps this connection's in-flight streams; a full window blocks
	// the read loop, so flow control is the transport's backpressure.
	slots := make(chan struct{}, s.maxStreams())
	var streams sync.WaitGroup
	defer streams.Wait()
	for {
		dr.startFrame(br.Buffered())
		msg, err := protocol.Read(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.log.Info("edge: connection closed on read error", obs.Err(err))
			}
			return
		}
		s.dispatchStream(conn, cw, slots, &streams, msg)
	}
}

// request is one admitted frame with its header decoded, once, by
// dispatchStream: hdr is what protocol.DecodeFrame returned, hdrErr its
// error.
type request struct {
	msg    protocol.Message
	hdr    any
	hdrErr error
}

// dispatchStream admits one frame as a stream: it decodes the header, waits
// for a stream slot, and only then hands the request to a handler goroutine
// that holds the slot until its response is written.
func (s *Server) dispatchStream(conn net.Conn, cw *connWriter, slots chan struct{}, streams *sync.WaitGroup, msg protocol.Message) {
	// An undecodable header dispatches as stream 0; the handler reports the
	// decode error in an error frame, which the client takes as being about
	// the whole connection.
	hdr, env, hdrErr := protocol.DecodeFrame(msg)
	req := request{msg: msg, hdr: hdr, hdrErr: hdrErr}
	// The stream-semaphore wait is where backpressure bites; time it so the
	// per-stream span and the stream_wait stage histogram expose a saturated
	// window.
	waitStart := time.Now()
	slots <- struct{}{}
	streamWait := time.Since(waitStart)
	// The request joins reqWG here, under mu, before its goroutine starts:
	// either Close has not set closed yet and its reqWG.Wait will see this
	// request, or it has and the stream is refused with one Error frame.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-slots
		s.errorsAnswered.Inc()
		resp, err := protocol.Encode(protocol.MsgError, protocol.ErrorHeader{Message: "edge: server closed", Seq: env.Seq}, nil)
		if err == nil {
			err = cw.write(resp)
		}
		if err != nil {
			s.log.Debug("edge: refusal write failed", obs.Err(err))
		}
		return
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	s.muxRequests.Inc()
	s.muxActive.Add(1)
	streams.Add(1)
	go func() {
		defer streams.Done()
		defer s.muxActive.Add(-1)
		defer func() { <-slots }()
		defer s.reqWG.Done()
		if err := s.serveRequest(cw, req, env.Seq, streamWait); err != nil {
			// The shared socket is broken; close it so the read loop and
			// sibling streams unwind.
			conn.Close()
		}
	}()
}

// serveRequest dispatches one request and writes its response under the
// request's seq; dispatchStream counts it in reqWG, so Close lets the final
// frame flush before terminating the connection. streamWait is the
// stream-semaphore wait.
func (s *Server) serveRequest(cw *connWriter, req request, seq uint64, streamWait time.Duration) error {
	resp, err := s.dispatch(req, streamWait)
	if err != nil {
		// A failed request is the client's business; a panicking executor
		// is the server's.
		logFailure := s.log.Debug
		if errors.Is(err, sched.ErrExecutorPanic) {
			logFailure = s.log.Error
		}
		logFailure("edge: request failed", obs.F("type", req.msg.Type.String()), obs.Err(err))
		s.errorsAnswered.Inc()
		hdr := protocol.ErrorHeader{Message: err.Error(), Seq: seq}
		var oe *overloadError
		if errors.As(err, &oe) {
			hdr.Message = oe.err.Error()
			hdr.Overloaded = oe.overloaded
			hdr.Load = s.loadHint()
		}
		// A chain failure additionally locates the failed hop so the
		// client's re-planner can exclude it from the next manifest.
		var ce *chainError
		if errors.As(err, &ce) {
			hdr.ChainHop = ce.hop
		}
		s.recordFailure(req.msg, err, oe)
		resp, err = protocol.Encode(protocol.MsgError, hdr, nil)
		if err != nil {
			return err
		}
	}
	if err := cw.write(resp); err != nil {
		s.log.Debug("edge: response write failed", obs.Err(err))
		return err
	}
	return nil
}

// overloadError decorates a scheduler admission failure with the overload
// marker that tells the client to execute locally; its Error frame also
// carries the load hint.
type overloadError struct {
	err        error
	overloaded bool
}

func (e *overloadError) Error() string { return e.err.Error() }
func (e *overloadError) Unwrap() error { return e.err }

// recordFailure deposits a failed request in the flight recorder: shed
// requests (a full admission queue rejected them) under the shed reason,
// everything else as an error. The trace ID, when the request carried one,
// joins the entry so operators can line it up with client-side traces.
func (s *Server) recordFailure(msg protocol.Message, err error, oe *overloadError) {
	if s.cfg.Flight == nil {
		return
	}
	reason := telemetry.FlightError
	if oe != nil && oe.overloaded {
		reason = telemetry.FlightShed
	}
	var tid struct {
		TraceID string `json:"traceId"`
	}
	_ = json.Unmarshal(msg.Header, &tid)
	s.cfg.Flight.Record(telemetry.FlightEntry{
		TraceID: tid.TraceID,
		Reason:  reason,
		Note:    msg.Type.String() + ": " + err.Error(),
	})
}

// dispatch routes one request to its handler with the header dispatchStream
// decoded. streamWait reaches the offload and chain handlers so the
// stream-semaphore wait lands in the request's server trace.
func (s *Server) dispatch(req request, streamWait time.Duration) (protocol.Message, error) {
	msg := req.msg
	// Pings work before installation: probes need to learn the install
	// state without tripping an error.
	if msg.Type != protocol.MsgPing && !s.Installed() && msg.Type != protocol.MsgInstallOverlay {
		return protocol.Message{}, errors.New("offloading system not installed on this edge server")
	}
	if req.hdrErr != nil {
		return protocol.Message{}, req.hdrErr
	}
	switch hdr := req.hdr.(type) {
	case *protocol.PingHeader:
		return s.handlePing(hdr)
	case *protocol.ModelPreSendHeader:
		return s.handleModelPreSend(msg, hdr)
	case *protocol.SnapshotHeader:
		if msg.Type == protocol.MsgSnapshot {
			return s.handleOffload(msg, hdr, streamWait)
		}
	case *protocol.InstallOverlayHeader:
		return s.handleInstall(msg, hdr)
	case *protocol.BlobGetHeader:
		return s.handleBlobGet(hdr)
	case *protocol.ChainExecHeader:
		return s.handleChainExec(msg, hdr, streamWait)
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

// decodeModel rebuilds a network from a pre-send header's spec and a
// weight blob.
func decodeModel(hdr protocol.ModelPreSendHeader, weights []byte) (*nn.Network, error) {
	net, err := nn.DecodeModel(hdr.Spec, weights)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", hdr.ModelName, err)
	}
	return net, nil
}

// handleModelPreSend stores the client's model files and acknowledges, per
// §III.B.1: "The server saves the files and sends an acknowledgement (ACK)
// message to the client." The client offers a reference first (RefOnly +
// BlobKey): the server resolves the model from its store or, fleet-joined,
// a peer, and answers NeedBlob when it cannot, telling the client to send
// the weights.
func (s *Server) handleModelPreSend(msg protocol.Message, hdr *protocol.ModelPreSendHeader) (protocol.Message, error) {
	start := time.Now()
	// The client propagated its trace through the pre-send hop: collect the
	// fleet-hop spans (registry locate, peer fetches) and parent them under
	// one resolve span answered on the ack.
	var trail *spanTrail
	if hdr.TraceID != "" {
		trail = &spanTrail{traceID: hdr.TraceID}
	}
	resolveSpan := func() *protocol.SpanNode {
		if trail == nil {
			return nil
		}
		return &protocol.SpanNode{
			Op:       "presend_resolve",
			Addr:     s.cfg.AdvertiseAddr,
			Micros:   time.Since(start).Microseconds(),
			Detail:   hdr.BlobKey,
			Children: trail.spans,
		}
	}
	var (
		net *nn.Network
		key = hdr.BlobKey
		err error
	)
	if hdr.RefOnly {
		if net, err = s.resolveModel(*hdr, trail); err != nil {
			s.refPreSendMisses.Inc()
			s.log.Debug("edge: ref pre-send unresolved", obs.F("model", hdr.ModelName), obs.F("blob", hdr.BlobKey), obs.Err(err))
			return protocol.Encode(protocol.MsgAck, protocol.AckHeader{
				AppID:     hdr.AppID,
				ModelName: hdr.ModelName,
				Seq:       hdr.Seq,
				Load:      s.loadHint(),
				NeedBlob:  true,
				Span:      resolveSpan(),
				Hints:     protocol.HintPackedBody,
			}, nil)
		}
		s.refPreSendHits.Inc()
	} else {
		if err := protocol.VerifyBody(msg.Body, hdr.BodyCRC); err != nil {
			return protocol.Message{}, fmt.Errorf("model %q weights: %w", hdr.ModelName, err)
		}
		if net, err = decodeModel(*hdr, msg.Body); err != nil {
			return protocol.Message{}, err
		}
		// An uploaded model is keyed by what it hashes to, whatever key
		// the client names for it.
		key = nn.Fingerprint(net)
	}
	if err := s.store.putKeyed(hdr.AppID, hdr.ModelName, key, net); err != nil {
		// The in-memory copy is in place; persistence failure only
		// affects restarts. Log and keep serving.
		s.log.Warn("edge: model persist failed", obs.F("model", hdr.ModelName), obs.Err(err))
	}
	s.modelsStored.Inc()
	s.log.Debug("edge: model stored", obs.F("model", hdr.ModelName), obs.F("appId", hdr.AppID),
		obs.F("params", net.TotalParams()), obs.F("ref", hdr.RefOnly))
	return protocol.Encode(protocol.MsgAck, protocol.AckHeader{
		AppID:     hdr.AppID,
		ModelName: hdr.ModelName,
		Seq:       hdr.Seq,
		Load:      s.loadHint(),
		Span:      resolveSpan(),
		Hints:     protocol.HintPackedBody,
		// The server's share of the round trip, so the client can read its
		// uplink off the rest.
		ServeMicros: time.Since(start).Microseconds(),
	}, nil)
}

// TraceRecorder exposes the server's aggregated stage histograms.
func (s *Server) TraceRecorder() *trace.Recorder { return s.rec }

// StatsDigest snapshots the server's telemetry for one registry heartbeat:
// every stage histogram in mergeable bucket form, the decision mix, and the
// live queue depth and store charge. cmd/edged wires this as the fleet
// agent's Stats supplier; fleetd merges the digests into fleet-wide
// rollups. Counters are cumulative, so the registry keeping only the latest
// digest per member loses nothing.
func (s *Server) StatsDigest() *protocol.StatsDigest {
	src := telemetry.DigestSource{
		Recorder: s.rec,
		Decisions: func() map[string]uint64 {
			m := s.Metrics()
			st := s.sched.Stats()
			return map[string]uint64{
				"snapshot_full": uint64(m.SnapshotsExecuted),
				"shed":          uint64(st.Rejected),
				"error":         uint64(m.Errors),
				"ref_hit":       uint64(s.refPreSendHits.Value()),
				"ref_miss":      uint64(s.refPreSendMisses.Value()),
				"peer_fetch":    uint64(s.blobPeerFetches.Value()),
			}
		},
		QueueDepth: func() int { return s.sched.Stats().QueueDepth },
		StoreBytes: func() int64 { return s.store.Bytes() },
		Start:      s.start,
	}
	return src.Digest()
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
	s.log.Info("edge: offloading system installed via VM synthesis", obs.F("synthesisMillis", res.SynthesisTime.Milliseconds()))
	return protocol.Encode(protocol.MsgInstallDone, protocol.InstallDoneHeader{
		BaseImage:       hdr.BaseImage,
		SynthesisMillis: res.SynthesisTime.Milliseconds(),
		Seq:             hdr.Seq,
	}, nil)
}
