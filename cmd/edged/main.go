// Command edged runs the edge server's offloading program: it listens for
// client connections, stores pre-sent DNN models, executes incoming
// snapshots on its web-app runtime, and returns result snapshots.
//
//	edged -listen :7080
//	edged -listen :7080 -on-demand        # require VM-synthesis installation first
//	edged -listen :7080 -metrics-addr :7081 -pprof
//	                                      # metrics + health probes + profiler
//	edged -listen :7080 -advertise 10.0.0.5:7080 -registry 10.0.0.2:7090
//	                                      # join a fleet: heartbeat into the registry and
//	                                      # share content-addressed blobs with peers
//
// -advertise is the address peers and roaming clients dial, which may
// differ from -listen behind NAT or a container port map; it must not be
// a wildcard address.
//
// Logs go to stderr as JSON lines; -quiet drops the per-request ones.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strconv"
	"time"

	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/fleet"
	"websnap/internal/obs"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
	"websnap/internal/vmsynth"
)

func main() {
	var (
		listen   = flag.String("listen", ":7080", "address to listen on")
		onDemand = flag.Bool("on-demand", false,
			"start without the offloading system installed; require VM synthesis")
		baseImage = flag.String("base-image", "ubuntu-12.04",
			"VM base image available for on-demand installation")
		modelDir = flag.String("model-dir", "",
			"directory to persist pre-sent models across restarts (empty = in-memory)")
		maxConns    = flag.Int("max-conns", 0, "max concurrent client connections (0 = unlimited)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve GET /metrics (Prometheus text), health probes, /slo and /debug/flight on this address (empty = disabled)")
		idle     = flag.Duration("idle-timeout", 0, "close connections idle longer than this (0 = never)")
		transfer = flag.Duration("transfer-timeout", 0,
			"max gap between reads within one frame once it started arriving (0 = same as -idle-timeout)")
		traceLog = flag.String("trace-log", "",
			"append one JSON line per served snapshot offload or chain hop with its span tree ('-' = stderr)")
		traceLogMaxBytes = flag.Int64("trace-log-max-bytes", obs.DefaultRotateBytes,
			"rotate the -trace-log file to <path>.1 when it would exceed this size (0 = never rotate)")
		quiet   = flag.Bool("quiet", false, "suppress per-request logging")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on -metrics-addr")

		workers = flag.Int("workers", edge.DefaultWorkers,
			"scheduler worker-pool size (concurrent snapshot executions)")
		queue = flag.Int("queue", 0,
			"scheduler admission-queue depth; a request finding it full is rejected at once (0 = default)")
		maxQueueBytes = flag.Int64("max-queue-bytes", 0,
			"max total snapshot bytes admitted to the scheduler queue (0 = unlimited)")

		maxStoreBytes = flag.Int64("max-store-bytes", 0,
			"session-store byte cap: pre-sent models (with -registry, also the blobs served to fleet peers) beyond it are evicted LRU (0 = unbounded)")
		maxStreams = flag.Int("max-streams", 0,
			"max concurrent multiplexed logical streams per client connection (0 = default 256)")

		registry = flag.String("registry", "",
			"fleet registry address to heartbeat into (empty = standalone server)")
		advertise = flag.String("advertise", "",
			"dialable address advertised to the fleet; may differ from -listen behind NAT (default: the -listen address if it names a concrete host)")

		sloObjective = flag.Duration("slo-objective", 0,
			"server-side latency SLO: offloads slower than this burn error budget, served on /slo (0 = no SLO)")
		sloGoal = flag.Float64("slo-goal", 0,
			"SLO good-event ratio target, e.g. 0.99 (0 = default 0.99)")
		flightBytes = flag.Int64("flight-bytes", 0,
			"flight-recorder ring byte cap for /debug/flight (0 = default 1 MiB)")
	)
	flag.Parse()
	sc := schedConfig{workers: *workers, queue: *queue, maxQueueBytes: *maxQueueBytes}
	fc := fleetConfig{registry: *registry, advertise: *advertise}
	bc := boundsConfig{storeBytes: *maxStoreBytes, streams: *maxStreams}
	tc := telemetryConfig{
		sloObjective: *sloObjective, sloGoal: *sloGoal,
		flightBytes: *flightBytes, traceLogMaxBytes: *traceLogMaxBytes,
	}
	if err := run(*listen, *onDemand, *baseImage, *modelDir, *metricsAddr, *traceLog, *maxConns, *idle, *transfer, *quiet, *pprofOn, sc, fc, bc, tc); err != nil {
		fmt.Fprintln(os.Stderr, "edged:", err)
		os.Exit(1)
	}
}

// schedConfig bundles the scheduler flags.
type schedConfig struct {
	workers, queue int
	maxQueueBytes  int64
}

// fleetConfig bundles the fleet flags.
type fleetConfig struct {
	registry, advertise string
}

// boundsConfig bundles the memory/stream bound flags.
type boundsConfig struct {
	storeBytes int64
	streams    int
}

// telemetryConfig bundles the SLO, flight-recorder, and trace-log rotation
// flags.
type telemetryConfig struct {
	sloObjective     time.Duration
	sloGoal          float64
	flightBytes      int64
	traceLogMaxBytes int64
}

// resolveAdvertise validates the fleet-advertised address: an explicit
// -advertise wins, otherwise the listener's address is used when it names
// a concrete host. Wildcard hosts are rejected — the advertised address is
// what peers and roaming clients dial, so it must be dialable as written.
func resolveAdvertise(advertise string, lnAddr net.Addr) (string, error) {
	addr := advertise
	if addr == "" {
		addr = lnAddr.String()
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-advertise %q: %w", addr, err)
	}
	wildcard := host == ""
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		wildcard = true
	}
	if wildcard {
		if advertise != "" {
			return "", fmt.Errorf("-advertise %q is a wildcard address; peers and clients must be able to dial it", advertise)
		}
		return "", fmt.Errorf("-registry requires -advertise when -listen binds the wildcard address %q", lnAddr)
	}
	return net.JoinHostPort(host, port), nil
}

func run(listen string, onDemand bool, baseImage, modelDir, metricsAddr, traceLog string, maxConns int, idle, transfer time.Duration, quiet, pprofOn bool, sc schedConfig, fc fleetConfig, bc boundsConfig, tc telemetryConfig) error {
	if fc.registry == "" && fc.advertise != "" {
		return fmt.Errorf("-advertise requires -registry (nothing to advertise to)")
	}
	if err := telemetry.CheckAdminFlags(metricsAddr, pprofOn, tc.sloObjective, tc.sloGoal); err != nil {
		return err
	}
	// The admin port is bound first, so a server that cannot serve its
	// probes exits before it serves or shows up in a fleet registry.
	adminLn, err := telemetry.ListenAdmin(metricsAddr)
	if err != nil {
		return err
	}
	if adminLn != nil {
		defer adminLn.Close()
	}
	catalog, err := core.DefaultCatalog()
	if err != nil {
		return err
	}
	level := slog.LevelDebug
	if quiet {
		level = slog.LevelInfo
	}
	logger := obs.NewLogger(os.Stderr, level)
	cfg := edge.Config{
		Catalog: catalog, Installed: !onDemand, ModelDir: modelDir, Logger: logger,
		MaxConns: maxConns, IdleTimeout: idle, TransferTimeout: transfer,
		Workers: sc.workers, QueueDepth: sc.queue, MaxQueueBytes: sc.maxQueueBytes,
		MaxStoreBytes: bc.storeBytes, MaxStreams: bc.streams,
	}
	switch traceLog {
	case "":
	case "-":
		cfg.TraceLog = os.Stderr
	default:
		if tc.traceLogMaxBytes > 0 {
			// Size-capped rotation: the live file plus one predecessor
			// (<path>.1) bound the disk the trace log can ever claim.
			rf, err := obs.NewRotatingFile(traceLog, tc.traceLogMaxBytes)
			if err != nil {
				return fmt.Errorf("open trace log: %w", err)
			}
			defer rf.Close()
			cfg.TraceLog = rf
		} else {
			f, err := os.OpenFile(traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open trace log: %w", err)
			}
			defer f.Close()
			cfg.TraceLog = f
		}
	}
	// The flight recorder is always on (it is a fixed-size in-memory ring);
	// the SLO engine needs an objective to exist.
	flight := telemetry.NewFlightRecorder(tc.flightBytes)
	cfg.Flight = flight
	if cfg.SLO, err = telemetry.NewDaemonSLO("edge-serve", tc.sloObjective, tc.sloGoal, flight, logger); err != nil {
		return err
	}
	if onDemand {
		cfg.Synthesizer = vmsynth.NewSynthesizer(vmsynth.BaseImage{Name: baseImage, Bytes: 8 << 30})
	}
	// The listener comes up before the server so a fleet-joined instance
	// can resolve its advertised address even when -listen picks the port
	// (":0").
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	var rc *fleet.RegistryClient
	if fc.registry != "" {
		adv, err := resolveAdvertise(fc.advertise, ln.Addr())
		if err != nil {
			ln.Close()
			return err
		}
		rc = fleet.NewRegistryClient(fc.registry, fleet.ClientOptions{})
		// A fleet identity is what turns blob sharing on: peers fetch what
		// the session store holds, so -max-store-bytes bounds the server's
		// whole content footprint, shared bytes included.
		cfg.AdvertiseAddr = adv
		cfg.Locator = rc
	}
	srv, err := edge.NewServer(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	// Daemon-only runtime stats (goroutines, heap, GC pauses, FDs); kept out
	// of edge.NewServer so library embedders and the byte-pinned metrics
	// goldens keep the bare application registry.
	obs.RegisterRuntimeStats(srv.Registry())
	registerKernelInfo(srv.Registry())
	logger.Info("edged: listening", slog.Any("addr", ln.Addr().String()), slog.Any("installed", !onDemand))
	if rc != nil {
		agent, err := fleet.StartAgent(fleet.AgentConfig{
			Client:   rc,
			Addr:     cfg.AdvertiseAddr,
			Capacity: sc.workers,
			Load:     srv.LoadHint,
			Blobs:    srv.BlobKeys,
			Stats:    srv.StatsDigest,
			Logger:   logger,
		})
		if err != nil {
			ln.Close()
			return err
		}
		defer agent.Close()
		logger.Info("edged: joined fleet", slog.Any("registry", fc.registry), slog.Any("advertise", cfg.AdvertiseAddr))
	}
	return telemetry.RunDaemon("edged", logger, ln, srv, adminLn, telemetry.AdminMux(telemetry.Admin{
		Metrics:  []func() *obs.Registry{srv.Registry},
		NotReady: srv.NotReady,
		SLO:      cfg.SLO, Flight: flight, Pprof: pprofOn,
	}))
}

// registerKernelInfo publishes which float32 GEMM micro-kernel this daemon
// runs as websnap_kernel_info{isa,tile,workers} 1: the ISA path CPUID
// chose, the register tile and the GEMM worker count (GOMAXPROCS).
func registerKernelInfo(r *obs.Registry) {
	isa, tile, workers := tensor.KernelInfo()
	r.GaugeVec("websnap_kernel_info",
		"The float32 GEMM micro-kernel in use: ISA path, MRxNR register tile and GEMM workers (GOMAXPROCS).",
		"isa", "tile", "workers").With(isa, tile, strconv.Itoa(workers)).Set(1)
}
