// Command fleetd runs the fleet registry: the membership and
// blob-location authority edge servers heartbeat into and clients fetch
// placement views from. It speaks the same binary frame protocol as the
// offload path, keeps no durable state (membership is rebuilt by
// heartbeats within one TTL after a restart), and needs no coordination
// with the edge servers it tracks — a dead registry degrades clients to
// their cached last-known-good views, it never stops the data plane.
//
// Beyond membership, fleetd is the fleet's telemetry rollup point: edge
// servers piggyback cumulative stats digests on their heartbeats, and the
// metrics endpoint re-merges them per scrape into fleet-wide stage
// histograms, decision mixes, and per-server summaries. Logs go to stderr as
// JSON lines.
//
//	fleetd -listen :7090
//	fleetd -listen :7090 -ttl 10s -metrics-addr :7091
//	fleetd -listen :7090 -metrics-addr :7091 -pprof \
//	       -slo-objective 50ms            # fleet-wide execute-latency SLO on /slo
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"websnap/internal/fleet"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
)

func main() {
	var (
		listen = flag.String("listen", ":7090", "address to listen on")
		ttl    = flag.Duration("ttl", fleet.DefaultTTL,
			"default registration lifetime; servers missing heartbeats this long are dropped")
		metricsAddr = flag.String("metrics-addr", "",
			"serve GET /metrics, /fleet, /slo, /debug/flight, and health probes on this address (empty = disabled)")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on -metrics-addr")
		sloObjective = flag.Duration("slo-objective", 0,
			"fleet-wide execute-latency SLO fed from heartbeat digests, served on /slo (0 = no SLO)")
		sloGoal = flag.Float64("slo-goal", 0,
			"SLO good-event ratio target, e.g. 0.99 (0 = default 0.99)")
		flightBytes = flag.Int64("flight-bytes", 0,
			"flight-recorder ring byte cap for /debug/flight (0 = default 1 MiB)")
	)
	flag.Parse()
	tc := telemetryConfig{sloObjective: *sloObjective, sloGoal: *sloGoal, flightBytes: *flightBytes}
	if err := run(*listen, *metricsAddr, *ttl, *pprofOn, tc); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

// telemetryConfig bundles the SLO and flight-recorder flags.
type telemetryConfig struct {
	sloObjective time.Duration
	sloGoal      float64
	flightBytes  int64
}

// sloFeed turns cumulative heartbeat digests into SLO event deltas: for
// each member it remembers the last seen (total, bad) counts of the
// execute stage and feeds only the increment, so re-heartbeated history is
// never double-counted. A member whose counts go backwards restarted; its
// full new counts are genuinely new events.
type sloFeed struct {
	slo       *telemetry.SLO
	objective time.Duration
	mu        sync.Mutex
	last      map[string]sloCounts
}

type sloCounts struct{ total, bad uint64 }

func (f *sloFeed) observe(addr string, d *protocol.StatsDigest) {
	if f == nil || d == nil {
		return
	}
	hd, ok := d.Stages[string(trace.StageExecute)]
	if !ok {
		return
	}
	h := telemetry.HistogramFromDigest(hd)
	cur := sloCounts{total: h.Count(), bad: h.CountAbove(f.objective)}
	f.mu.Lock()
	prev := f.last[addr]
	if cur.total < prev.total {
		prev = sloCounts{}
	}
	f.last[addr] = cur
	f.mu.Unlock()
	f.slo.ObserveCounts(cur.total-prev.total, cur.bad-prev.bad)
}

func run(listen, metricsAddr string, ttl time.Duration, pprofOn bool, tc telemetryConfig) error {
	if ttl <= 0 {
		return fmt.Errorf("-ttl must be positive, got %v", ttl)
	}
	if pprofOn && metricsAddr == "" {
		return fmt.Errorf("-pprof requires -metrics-addr")
	}
	logger := obs.NewLogger(os.Stderr, obs.LevelInfo)
	flight := telemetry.NewFlightRecorder(tc.flightBytes)
	var feed *sloFeed
	if tc.sloObjective > 0 {
		slo, err := telemetry.NewSLO(telemetry.SLOConfig{
			Name:      "fleet-execute",
			Objective: tc.sloObjective,
			Goal:      tc.sloGoal,
			OnBurn: func(st telemetry.SLOStatus) {
				flight.Record(telemetry.FlightEntry{
					Reason: telemetry.FlightBurn,
					Note: fmt.Sprintf("slo %s burning: short %.2fx long %.2fx over objective %v",
						st.Name, st.ShortBurn, st.LongBurn, tc.sloObjective),
				})
				logger.Warn("fleetd: slo burning", obs.F("slo", st.Name),
					obs.F("shortBurn", st.ShortBurn), obs.F("longBurn", st.LongBurn))
			},
		})
		if err != nil {
			return err
		}
		feed = &sloFeed{slo: slo, objective: tc.sloObjective, last: make(map[string]sloCounts)}
	} else if tc.sloGoal != 0 {
		return fmt.Errorf("-slo-goal requires -slo-objective")
	}
	metrics := obs.NewRegistry()
	obs.RegisterRuntimeStats(metrics)
	reg := fleet.NewRegistry(fleet.RegistryOptions{
		TTL: ttl, Metrics: metrics, Logger: logger,
		OnStats: feed.observe,
	})
	srv := fleet.NewRegistryServer(reg, logger)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	logger.Info("fleetd: registry listening", obs.F("addr", ln.Addr().String()), obs.F("ttl", ttl.String()))

	var metricsSrv *http.Server
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsHandler(metrics, reg.Stats))
		mux.Handle("/fleet", telemetry.FleetHandler(reg.Stats))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte("ok\n")) //nolint:errcheck // best-effort probe reply
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			// The registry is ready as soon as it listens; like edged, a
			// burning SLO is reported in-body but keeps the probe green —
			// a slow fleet is degraded, not a reason to kill its registry.
			if feed != nil && feed.slo.Status().Burning {
				w.Write([]byte("ready (slo burning)\n")) //nolint:errcheck // best-effort probe reply
				return
			}
			w.Write([]byte("ready\n")) //nolint:errcheck // best-effort probe reply
		})
		if feed != nil {
			mux.Handle("/slo", feed.slo.Handler())
		} else {
			mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "no SLO configured (-slo-objective)", http.StatusNotFound)
			})
		}
		mux.Handle("/debug/flight", flight.Handler())
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		metricsSrv = &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("fleetd: metrics server failed", obs.Err(err))
			}
		}()
		logger.Info("fleetd: metrics serving", obs.F("url", "http://"+metricsAddr+"/metrics"), obs.F("pprof", pprofOn))
	}
	defer func() {
		if metricsSrv != nil {
			metricsSrv.Close()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case s := <-sig:
		logger.Info("fleetd: shutting down", obs.F("signal", s.String()))
		if err := srv.Close(); err != nil {
			return err
		}
		return <-done
	}
}

// metricsHandler serves the registry's own families (fleet_* and runtime)
// and then the fleet rollup (websnap_rollup_*), re-merged from the members'
// latest digests on every scrape.
func metricsHandler(metrics *obs.Registry, snapshot func() []telemetry.ServerStats) http.Handler {
	return obs.MetricsHandler(
		func() *obs.Registry { return metrics },
		func() *obs.Registry { return telemetry.Rollup{Servers: snapshot()}.Registry() },
	)
}
