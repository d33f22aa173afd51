// Command fleetd runs the fleet registry: the membership and
// blob-location authority edge servers heartbeat into and clients fetch
// placement views from. It speaks the same binary frame protocol as the
// offload path, keeps no durable state (membership is rebuilt by
// heartbeats within one TTL after a restart), and needs no coordination
// with the edge servers it tracks — a dead registry leaves roaming clients
// on their last-known-good membership, it never stops the data plane.
// -ttl is the one registration lifetime (at least fleet.MinTTL): every
// heartbeat's acknowledgement grants it, and each edge server heartbeats at
// a third of it.
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
//	       -slo-objective 50ms            # fleet-wide execute-stage SLO on /slo
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"websnap/internal/fleet"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
)

func main() {
	var (
		listen = flag.String("listen", ":7090", "address to listen on")
		ttl    = flag.Duration("ttl", fleet.DefaultTTL,
			"registration lifetime granted to every server, which heartbeats at a third of it; servers missing heartbeats this long are dropped (at least 30ms)")
		metricsAddr = flag.String("metrics-addr", "",
			"serve GET /metrics, /fleet, /slo, /debug/flight, and health probes on this address (empty = disabled)")
		pprofOn = flag.Bool("pprof", false,
			"expose net/http/pprof under /debug/pprof/ on -metrics-addr")
		sloObjective = flag.Duration("slo-objective", 0,
			"fleet-wide SLO on the execute stage (a snapshot offload's restore + handler run, a chain hop's layer range), fed from heartbeat digests, served on /slo (0 = no SLO)")
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
	hd, ok := d.Stages[protocol.SpanExecute]
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
	if ttl < fleet.MinTTL {
		return fmt.Errorf("-ttl must be at least %v, got %v", fleet.MinTTL, ttl)
	}
	if err := telemetry.CheckAdminFlags(metricsAddr, pprofOn, tc.sloObjective, tc.sloGoal); err != nil {
		return err
	}
	adminLn, err := telemetry.ListenAdmin(metricsAddr)
	if err != nil {
		return err
	}
	if adminLn != nil {
		defer adminLn.Close()
	}
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)
	flight := telemetry.NewFlightRecorder(tc.flightBytes)
	slo, err := telemetry.NewDaemonSLO("fleet-execute", tc.sloObjective, tc.sloGoal, flight, logger)
	if err != nil {
		return err
	}
	var feed *sloFeed
	if slo != nil {
		feed = &sloFeed{slo: slo, objective: tc.sloObjective, last: make(map[string]sloCounts)}
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
	logger.Info("fleetd: registry listening", slog.Any("addr", ln.Addr().String()), slog.Any("ttl", ttl.String()))

	return telemetry.RunDaemon("fleetd", logger, ln, srv, adminLn, adminMux(metrics, reg.Stats, slo, flight, pprofOn))
}

// adminMux is fleetd's operator mux: the shared probe set plus /fleet. Its
// /metrics writes the registry's own families (fleet_* and runtime) and
// then the fleet rollup (websnap_rollup_*), re-merged from the members'
// latest digests on every scrape. The registry is ready as soon as it
// listens; a burning SLO is reported on /readyz but keeps the probe green.
func adminMux(metrics *obs.Registry, snapshot func() []telemetry.ServerStats, slo *telemetry.SLO, flight *telemetry.FlightRecorder, pprof bool) *http.ServeMux {
	mux := telemetry.AdminMux(telemetry.Admin{
		Metrics: []func() *obs.Registry{
			func() *obs.Registry { return metrics },
			func() *obs.Registry { return telemetry.Rollup{Servers: snapshot()}.Registry() },
		},
		SLO: slo, Flight: flight, Pprof: pprof,
	})
	mux.Handle("/fleet", telemetry.FleetHandler(snapshot))
	return mux
}
