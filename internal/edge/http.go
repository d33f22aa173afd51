package edge

import (
	"net/http"

	"websnap/internal/obs"
)

// MetricsHandler serves the server's registry — operation counters,
// scheduler state, per-stage latency histograms, and whatever an embedder
// added (cmd/edged's runtime stats) — as Prometheus text exposition.
//
//	mux := http.NewServeMux()
//	mux.Handle("/metrics", srv.MetricsHandler())
func (s *Server) MetricsHandler() http.Handler { return obs.MetricsHandler(s.Registry) }

// HealthzHandler reports process liveness: it answers 200 as long as the
// process can serve HTTP at all. Orchestrators restart on liveness
// failures, so this must not depend on installation or load state.
func (s *Server) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck // best-effort probe reply
	})
}

// ReadyzHandler reports readiness to execute offloads: 200 when the
// offloading system is installed and the scheduler is accepting work, 503
// with the blocking condition otherwise. Load balancers route on this — a
// live-but-not-ready server (mid-install, or draining on shutdown) drops
// out of rotation without being restarted. A burning SLO is surfaced in
// the 200 body ("ready (slo burning)") rather than flipping to 503: the
// server still serves correctly, it is just slow, and yanking it from
// rotation would shift its load onto peers already near their own
// objectives.
func (s *Server) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case !s.Installed():
			http.Error(w, "offloading system not installed", http.StatusServiceUnavailable)
		case !s.sched.Accepting():
			http.Error(w, "scheduler draining", http.StatusServiceUnavailable)
		case s.cfg.SLO != nil && s.cfg.SLO.Status().Burning:
			w.Write([]byte("ready (slo burning)\n")) //nolint:errcheck // best-effort probe reply
		default:
			w.Write([]byte("ready\n")) //nolint:errcheck // best-effort probe reply
		}
	})
}

// SLOHandler serves the configured SLO's burn state as JSON, or 404 when
// no SLO was configured (cmd/edged without -slo-objective).
func (s *Server) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.SLO == nil {
			http.Error(w, "no SLO configured", http.StatusNotFound)
			return
		}
		s.cfg.SLO.Handler().ServeHTTP(w, r)
	})
}

// FlightHandler serves the flight recorder's ring as JSON, or 404 when no
// recorder was configured.
func (s *Server) FlightHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Flight == nil {
			http.Error(w, "no flight recorder configured", http.StatusNotFound)
			return
		}
		s.cfg.Flight.Handler().ServeHTTP(w, r)
	})
}
