package telemetry

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"websnap/internal/obs"
)

// Admin is a daemon's operator plane. edged and fleetd both serve the mux
// AdminMux builds from it, so they expose the same probe set.
type Admin struct {
	// Metrics are the registries /metrics writes, in order.
	Metrics []func() *obs.Registry
	// NotReady returns why /readyz answers 503, or nil when the daemon is
	// ready; a nil func is always ready.
	NotReady func() error
	// SLO backs /slo and the burning note on /readyz; nil answers /slo 404.
	SLO *SLO
	// Flight backs /debug/flight; nil answers 404.
	Flight *FlightRecorder
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// AdminMux builds the operator mux: /metrics (Prometheus text), /healthz,
// /readyz, /slo, /debug/flight and, with Pprof, /debug/pprof/.
//
// /healthz answers 200 as long as the process serves HTTP at all:
// orchestrators restart on liveness failures, so it depends on nothing.
// /readyz answers 503 with NotReady's reason, else 200. Load balancers
// route on it — a live-but-not-ready server (mid-install, or draining on
// shutdown) drops out of rotation without being restarted. A burning SLO
// is surfaced in the 200 body ("ready (slo burning)") rather than flipping
// to 503: the daemon still serves correctly, it is just slow, and yanking
// it from rotation would shift its load onto peers already near their own
// objectives.
func AdminMux(a Admin) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(a.Metrics...))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort probe reply
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if a.NotReady != nil {
			if err := a.NotReady(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.SLO != nil && a.SLO.Status().Burning {
			w.Write([]byte("ready (slo burning)\n")) //nolint:errcheck // best-effort probe reply
			return
		}
		w.Write([]byte("ready\n")) //nolint:errcheck // best-effort probe reply
	})
	if a.SLO != nil {
		mux.Handle("/slo", a.SLO.Handler())
	} else {
		mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no SLO configured (-slo-objective)", http.StatusNotFound)
		})
	}
	if a.Flight != nil {
		mux.Handle("/debug/flight", a.Flight.Handler())
	} else {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "no flight recorder configured", http.StatusNotFound)
		})
	}
	if a.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// CheckAdminFlags rejects the operator-plane flag pairings that cannot
// work. A daemon calls it before it binds or registers anything.
func CheckAdminFlags(metricsAddr string, pprof bool, sloObjective time.Duration, sloGoal float64) error {
	if pprof && metricsAddr == "" {
		return errors.New("-pprof requires -metrics-addr")
	}
	if sloGoal != 0 && sloObjective <= 0 {
		return errors.New("-slo-goal requires -slo-objective")
	}
	return nil
}

// NewDaemonSLO builds a daemon's latency SLO, or returns nil when objective
// is zero. Its burn transition is recorded in flight, so the dump shows
// when the budget started draining alongside the offending slow-request
// span trees, and logged as a warning.
func NewDaemonSLO(name string, objective time.Duration, goal float64, flight *FlightRecorder, logger *slog.Logger) (*SLO, error) {
	if objective <= 0 {
		return nil, nil
	}
	logger = cmp.Or(logger, obs.Discard)
	return NewSLO(SLOConfig{
		Name:      name,
		Objective: objective,
		Goal:      goal,
		OnBurn: func(st SLOStatus) {
			flight.Record(FlightEntry{
				Reason: FlightBurn,
				Note: fmt.Sprintf("slo %s burning: short %.2fx long %.2fx over objective %v",
					st.Name, st.ShortBurn, st.LongBurn, objective),
			})
			logger.Warn("telemetry: slo burning", slog.Any("slo", st.Name),
				slog.Any("shortBurn", st.ShortBurn), slog.Any("longBurn", st.LongBurn))
		},
	})
}

// ListenAdmin binds a daemon's operator plane at metricsAddr (nil when it
// is empty). Daemons bind it before they serve or join a fleet, and a bind
// error ends them at once: a daemon without /metrics and its probes is
// invisible to its operator.
func ListenAdmin(metricsAddr string) (net.Listener, error) {
	if metricsAddr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("-metrics-addr: %w", err)
	}
	return ln, nil
}

// RunDaemon runs a daemon until SIGINT or SIGTERM: srv serves ln and, when
// adminLn is non-nil (see ListenAdmin), admin serves the operator plane on
// it. On the signal it closes srv and returns what Serve returned.
func RunDaemon(name string, logger *slog.Logger, ln net.Listener, srv interface {
	Serve(net.Listener) error
	Close() error
}, adminLn net.Listener, admin http.Handler) error {
	logger = cmp.Or(logger, obs.Discard)
	if adminLn != nil {
		hs := &http.Server{Handler: admin}
		defer hs.Close()
		go func() {
			if err := hs.Serve(adminLn); !errors.Is(err, http.ErrServerClosed) {
				logger.Error(name+": metrics server failed", obs.Err(err))
			}
		}()
		logger.Info(name+": metrics serving", slog.Any("url", "http://"+adminLn.Addr().String()+"/metrics"))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case s := <-sig:
		logger.Info(name+": shutting down", slog.Any("signal", s.String()))
		if err := srv.Close(); err != nil {
			return err
		}
		return <-done
	}
}
