package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/edge"
	"websnap/internal/obs"
	"websnap/internal/webapp"
)

// flakyRegistries builds two registries sharing a CodeHash (name + handler
// names) but not behavior: the server-side variant fails every failEvery-th
// execution, the client-side variant always succeeds. Offloaded snapshots
// resolve to the flaky code at the server while local fallback runs the
// reliable copy — a deterministic server-error injector with no wire-level
// interference.
func flakyRegistries(execs *atomic.Int64, failEvery int64) (server, client *webapp.Registry) {
	server = webapp.NewRegistry("flakyapp")
	server.MustRegister("work", func(app *webapp.App, ev webapp.Event) error {
		if execs.Add(1)%failEvery == 0 {
			return errors.New("injected server failure")
		}
		return app.SetGlobal("done", "yes")
	})
	client = webapp.NewRegistry("flakyapp")
	client.MustRegister("work", func(app *webapp.App, ev webapp.Event) error {
		return app.SetGlobal("done", "yes")
	})
	return server, client
}

func isHex16(s string) bool {
	if len(s) != 16 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TestAuditFlakyServerConcurrent drives several concurrent offloaders —
// sharing one Auditor — through a real edge server whose handler fails
// every Nth execution. Run under -race. It pins the audit contract:
// exactly one decision per offload-eligible event, fallback-after-error
// attributed to the right error kind, and trace IDs on successful
// decisions joinable to the offloader's last span tree.
func TestAuditFlakyServerConcurrent(t *testing.T) {
	const (
		clients   = 4
		events    = 12
		failEvery = 5
	)
	var execs atomic.Int64
	serverReg, clientReg := flakyRegistries(&execs, failEvery)
	cat := webapp.NewCatalog()
	if err := cat.Add(serverReg); err != nil {
		t.Fatal(err)
	}
	addr := startEdge(t, edge.Config{Catalog: cat, Installed: true, Workers: 2})

	audit := obs.NewAuditor(obs.AuditorOptions{Keep: clients * events})
	offs := make([]*Offloader, clients)
	clientErrs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = func() error {
				app, err := webapp.NewApp(fmt.Sprintf("flaky-%d", i), clientReg)
				if err != nil {
					return err
				}
				if err := app.AddEventListener("b", "go", "work"); err != nil {
					return err
				}
				conn, err := Dial(addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				off, err := NewOffloader(app, conn, Options{
					OffloadEventTypes: []string{"go"},
					LocalFallback:     true,
					Audit:             audit,
					PredictedOffload:  2 * time.Millisecond,
				})
				if err != nil {
					return err
				}
				offs[i] = off
				for n := 0; n < events; n++ {
					app.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
					if _, err := off.Run(1); err != nil {
						return fmt.Errorf("event %d: %w", n, err)
					}
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Exactly one decision per offload-eligible event, across all clients.
	total := int64(clients * events)
	if got := audit.Total(); got != total {
		t.Fatalf("audit total = %d, want %d (one decision per event)", got, total)
	}
	// Every event reached the server exactly once (fallback re-runs
	// locally, it does not retry the offload), so the injected failure
	// count is fully determined.
	wantFallbacks := total / failEvery
	if got := execs.Load(); got != total {
		t.Errorf("server executions = %d, want %d", got, total)
	}

	// Decision mix: only full offloads and fallbacks, summing to the
	// total, with the fallback count matching both the injected failures
	// and the offloaders' own Stats.
	sum := audit.Summary()
	mix := map[obs.DecisionPath]int64{}
	for _, pc := range sum.Mix {
		mix[pc.Path] = pc.Count
	}
	if len(mix) != 2 || mix[obs.PathFull] == 0 || mix[obs.PathFallback] == 0 {
		t.Fatalf("decision mix = %v, want only %s and %s", sum.Mix, obs.PathFull, obs.PathFallback)
	}
	if mix[obs.PathFull]+mix[obs.PathFallback] != total {
		t.Errorf("mix sums to %d, want %d", mix[obs.PathFull]+mix[obs.PathFallback], total)
	}
	if mix[obs.PathFallback] != wantFallbacks {
		t.Errorf("fallback decisions = %d, want %d", mix[obs.PathFallback], wantFallbacks)
	}
	var statFallbacks int64
	for _, off := range offs {
		statFallbacks += int64(off.Stats().LocalFallbacks)
	}
	if statFallbacks != mix[obs.PathFallback] {
		t.Errorf("Stats fallbacks = %d, audit fallbacks = %d", statFallbacks, mix[obs.PathFallback])
	}

	// Prediction-error samples come from successful offloads only (the
	// only decisions carrying both a prediction and a measurement).
	if sum.PredErr.Count != int(mix[obs.PathFull]) {
		t.Errorf("prediction-error samples = %d, want %d", sum.PredErr.Count, mix[obs.PathFull])
	}

	// Per-decision attribution: fallbacks blame the server error; both
	// paths carry a stamped, unique trace ID and the server's address.
	seen := map[string]bool{}
	lastFullTrace := map[string]string{} // appID -> trace ID of latest full decision
	for _, d := range audit.Recent() {
		if d.Server != addr {
			t.Errorf("decision server = %q, want %q", d.Server, addr)
		}
		if !isHex16(d.TraceID) {
			t.Errorf("decision %s/%s trace ID %q, want 16 hex digits", d.Path, d.AppID, d.TraceID)
		}
		if seen[d.TraceID] {
			t.Errorf("trace ID %s appears on two decisions", d.TraceID)
		}
		seen[d.TraceID] = true
		switch d.Path {
		case obs.PathFallback:
			if d.Reason != "server-error" {
				t.Errorf("fallback reason = %q, want server-error", d.Reason)
			}
			if d.Measured <= 0 {
				t.Error("fallback decision missing local execution time")
			}
		case obs.PathFull:
			if d.Measured <= 0 || d.Predicted != 2*time.Millisecond {
				t.Errorf("full decision timing = %v/%v", d.Predicted, d.Measured)
			}
			lastFullTrace[d.AppID] = d.TraceID
		default:
			t.Errorf("unexpected decision path %s", d.Path)
		}
	}

	// Joinability: each offloader's last successful decision names the
	// trace its last span tree was recorded under.
	for i, off := range offs {
		appID := fmt.Sprintf("flaky-%d", i)
		st := off.Stats()
		if st.LastSpan == nil {
			t.Fatalf("client %d: no span recorded", i)
		}
		if st.LastTraceID != lastFullTrace[appID] {
			t.Errorf("client %d: last trace %s, last full decision %s", i, st.LastTraceID, lastFullTrace[appID])
		}
	}
}
