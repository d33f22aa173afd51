package telemetry

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"websnap/internal/obs"
)

// TestAdminMux drives the operator mux both daemons serve, endpoint by
// endpoint, with and without each optional part.
func TestAdminMux(t *testing.T) {
	first, second := obs.NewRegistry(), obs.NewRegistry()
	first.Counter("first_total", "First registry.").Inc()
	second.Counter("second_total", "Second registry.").Inc()
	metrics := []func() *obs.Registry{
		func() *obs.Registry { return first },
		func() *obs.Registry { return second },
	}
	flight := NewFlightRecorder(0)
	burning, err := NewDaemonSLO("edge-serve", time.Nanosecond, 0, flight, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		burning.Observe(time.Millisecond)
	}
	if !burning.Status().Burning {
		t.Fatal("SLO not burning after every request missed a 1 ns objective")
	}
	if d := flight.Dump(); len(d) != 1 || d[0].Reason != FlightBurn || !strings.HasPrefix(d[0].Note, "slo edge-serve burning") {
		t.Fatalf("flight after the burn = %+v, want one %s entry naming the SLO", d, FlightBurn)
	}
	calm, err := NewDaemonSLO("calm", time.Hour, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	draining := func() error { return errors.New("scheduler draining") }

	const text, json = "text/plain; charset=utf-8", "application/json"
	for _, tc := range []struct {
		name  string
		admin Admin
		path  string
		code  int
		ctype string
		body  string // exact body when it starts with "=", else a substring
	}{
		{"healthz", Admin{}, "/healthz", 200, text, "=ok\n"},
		{"healthz while not ready", Admin{NotReady: draining}, "/healthz", 200, text, "=ok\n"},
		{"readyz", Admin{}, "/readyz", 200, text, "=ready\n"},
		{"readyz ready with a calm SLO", Admin{NotReady: func() error { return nil }, SLO: calm}, "/readyz", 200, text, "=ready\n"},
		{"readyz slo burning", Admin{SLO: burning}, "/readyz", 200, text, "=ready (slo burning)\n"},
		{"readyz not ready", Admin{NotReady: draining, SLO: burning}, "/readyz", 503, text, "=scheduler draining\n"},
		{"slo", Admin{SLO: burning}, "/slo", 200, json, `"burning": true`},
		{"slo absent", Admin{}, "/slo", 404, text, "=no SLO configured (-slo-objective)\n"},
		{"flight", Admin{Flight: flight}, "/debug/flight", 200, json, `"reason": "slo_burn"`},
		{"flight absent", Admin{}, "/debug/flight", 404, text, "=no flight recorder configured\n"},
		{"pprof", Admin{Pprof: true}, "/debug/pprof/", 200, "text/html; charset=utf-8", "goroutine"},
		{"pprof off", Admin{}, "/debug/pprof/", 404, text, "404 page not found"},
		{"metrics in order", Admin{Metrics: metrics}, "/metrics", 200, "text/plain; version=0.0.4; charset=utf-8",
			"=# HELP first_total First registry.\n# TYPE first_total counter\nfirst_total 1\n" +
				"# HELP second_total Second registry.\n# TYPE second_total counter\nsecond_total 1\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			AdminMux(tc.admin).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, tc.path, nil))
			if rr.Code != tc.code || rr.Header().Get("Content-Type") != tc.ctype {
				t.Errorf("GET %s = %d %q, want %d %q", tc.path, rr.Code, rr.Header().Get("Content-Type"), tc.code, tc.ctype)
			}
			body := rr.Body.String()
			if want, exact := strings.CutPrefix(tc.body, "="); exact && body != want || !exact && !strings.Contains(body, want) {
				t.Errorf("GET %s body = %q, want %q", tc.path, body, tc.body)
			}
		})
	}
}

func TestCheckAdminFlags(t *testing.T) {
	for _, tc := range []struct {
		metricsAddr string
		pprof       bool
		objective   time.Duration
		goal        float64
		want        string
	}{
		{"", false, 0, 0, ""},
		{":7081", true, time.Second, 0.99, ""},
		{"", true, 0, 0, "-pprof requires -metrics-addr"},
		{":7081", false, 0, 0.99, "-slo-goal requires -slo-objective"},
	} {
		got := ""
		if err := CheckAdminFlags(tc.metricsAddr, tc.pprof, tc.objective, tc.goal); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("CheckAdminFlags(%q, %v, %v, %v) = %q, want %q", tc.metricsAddr, tc.pprof, tc.objective, tc.goal, got, tc.want)
		}
	}
	if slo, err := NewDaemonSLO("none", 0, 0, nil, nil); slo != nil || err != nil {
		t.Errorf("NewDaemonSLO without an objective = %v, %v; want no SLO", slo, err)
	}
}

// TestListenAdminFailsOnHeldPort: a taken admin port is an error the
// daemon returns at once, naming the flag, instead of a log line it serves
// on past without /metrics, /healthz and /readyz. No -metrics-addr binds
// nothing.
func TestListenAdminFailsOnHeldPort(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if ln, err := ListenAdmin(held.Addr().String()); !errors.Is(err, syscall.EADDRINUSE) ||
		!strings.Contains(fmt.Sprint(err), "-metrics-addr") {
		if ln != nil {
			ln.Close()
		}
		t.Errorf("ListenAdmin on a held port = %v, want a -metrics-addr bind error", err)
	}
	if ln, err := ListenAdmin(""); ln != nil || err != nil {
		t.Errorf("ListenAdmin(\"\") = %v, %v; want nothing bound", ln, err)
	}
}
