package client_test

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/mlapp"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/roam"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
	"websnap/internal/webapp"
)

// realEdge runs an edge server serving the standard ML apps.
func realEdge(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(edge.Config{Catalog: cat, Installed: true, AdvertiseAddr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// fakeEdge is a scripted server: pings are answered with load (so a client
// can be handed a hint), every other request with the frame answer builds
// for it — or, when answer returns false, by hanging up.
func fakeEdge(t *testing.T, load *protocol.LoadHint, answer func(req protocol.Message, seq uint64) (protocol.Message, bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				for {
					req, err := protocol.Read(c)
					if err != nil {
						return
					}
					var env protocol.MuxEnvelope
					_ = json.Unmarshal(req.Header, &env)
					resp, ok := protocol.Message{}, true
					if req.Type == protocol.MsgPing {
						resp, _ = protocol.Encode(protocol.MsgPong,
							protocol.PongHeader{Installed: true, Load: load, Seq: env.Seq}, nil)
					} else if resp, ok = answer(req, env.Seq); !ok {
						return
					}
					if protocol.Write(c, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func errorFrame(overloaded bool) func(protocol.Message, uint64) (protocol.Message, bool) {
	return func(_ protocol.Message, seq uint64) (protocol.Message, bool) {
		msg, _ := protocol.Encode(protocol.MsgError,
			protocol.ErrorHeader{Message: "scripted refusal", Seq: seq, Overloaded: overloaded}, nil)
		return msg, true
	}
}

func wrongType(_ protocol.Message, seq uint64) (protocol.Message, bool) {
	msg, _ := protocol.Encode(protocol.MsgInstallDone, protocol.InstallDoneHeader{Seq: seq}, nil)
	return msg, true
}

func hangUp(protocol.Message, uint64) (protocol.Message, bool) { return protocol.Message{}, false }

func tiny(t *testing.T) *nn.Network {
	t.Helper()
	m, err := models.BuildTinyNet("tiny", 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetRequestTimeout(10 * time.Second)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// sinks are the audit and flight feeds one funnel outcome is checked on.
type sinks struct {
	audit  *obs.Auditor
	flight *telemetry.FlightRecorder
}

// mlOffloader wires a TinyNet full-inference app to addr.
func mlOffloader(t *testing.T, s sinks, addr string, opts client.Options) (*client.Offloader, func()) {
	t.Helper()
	app, err := mlapp.NewFullApp("funnel-ml", "tiny", tiny(t), []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	opts.OffloadEventTypes = []string{mlapp.EventClick}
	opts.Audit, opts.Flight = s.audit, s.flight
	off, err := client.NewOffloader(app, dial(t, addr), opts)
	if err != nil {
		t.Fatal(err)
	}
	return off, func() {
		if err := mlapp.LoadImage(app, mlapp.SyntheticImage(3*16*16, 5)); err != nil {
			t.Fatal(err)
		}
		app.DispatchEvent(webapp.Event{Target: mlapp.ButtonID, Type: mlapp.EventClick})
		if _, err := off.Run(4); err != nil {
			t.Fatal(err)
		}
	}
}

// plainStep drives one offload-eligible event of a model-less app against
// addr and returns Step's error. failLocal makes the on-device handler fail.
func plainStep(t *testing.T, s sinks, addr string, opts client.Options, ping, failLocal bool) error {
	t.Helper()
	reg := webapp.NewRegistry("funnel-plain")
	reg.MustRegister("work", func(app *webapp.App, ev webapp.Event) error {
		if failLocal {
			return errors.New("handler broke")
		}
		return app.SetGlobal("done", "yes")
	})
	app, err := webapp.NewApp("funnel-plain", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AddEventListener("b", "go", "work"); err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)
	if ping {
		if _, _, err := conn.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	opts.OffloadEventTypes = []string{"go"}
	opts.Audit, opts.Flight = s.audit, s.flight
	off, err := client.NewOffloader(app, conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	app.DispatchEvent(webapp.Event{Target: "b", Type: "go"})
	_, err = off.Step()
	return err
}

// chainExec runs one ChainExecutor request over the candidate addresses.
func chainExec(t *testing.T, s sinks, depth int, local func(*tensor.Tensor) (*tensor.Tensor, error), addrs ...string) error {
	t.Helper()
	model := tiny(t)
	in, err := tensor.New(model.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := roam.NewChainExecutor(roam.ChainConfig{
		AppID: "funnel-chain", ModelName: model.Name(), Model: model, Depth: depth, Local: local,
		Candidates: func() []roam.ChainServer {
			out := make([]roam.ChainServer, len(addrs))
			for i, a := range addrs {
				out[i] = roam.ChainServer{Addr: a}
			}
			return out
		},
		Auditor: s.audit, Flight: s.flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	_, _, err = ex.Execute(in)
	return err
}

// TestFunnelOutcomes drives every way a request can leave the attempt
// funnel — through client.Offloader, core.Session and roam.ChainExecutor —
// and checks the contract they now share: exactly one decision per request,
// with the documented path and reason, a trace ID iff a request went on the
// wire — and, when it was a snapshot request, the form its body travelled in —
// and one flight entry for every shed, fallback and error.
func TestFunnelOutcomes(t *testing.T) {
	type outcome struct {
		name string
		// run drives one request through one entry point and returns its
		// error; the checks below apply to its decision.
		run     func(t *testing.T, s sinks) error
		path    obs.DecisionPath
		reason  string
		traced  bool
		split   string
		failing bool // the request surfaces an error
	}
	shedStep := func(load protocol.LoadHint, failLocal bool) func(t *testing.T, s sinks) error {
		return func(t *testing.T, s sinks) error {
			addr := fakeEdge(t, &load, hangUp)
			return plainStep(t, s, addr, client.Options{MaxQueueingDelay: time.Millisecond}, true, failLocal)
		}
	}
	cases := []outcome{
		{name: "local", path: obs.PathLocal, reason: "mode-local",
			run: func(t *testing.T, s sinks) error {
				sess, err := core.NewSession(core.SessionConfig{AppID: "l", ModelName: "tiny", Model: tiny(t),
					Mode: core.ModeLocal, Audit: s.audit})
				if err != nil {
					t.Fatal(err)
				}
				_, err = sess.Classify(mlapp.SyntheticImage(3*16*16, 1))
				return err
			}},
		{name: "full", path: obs.PathFull, reason: "ok", traced: true,
			run: func(t *testing.T, s sinks) error {
				_, classify := mlOffloader(t, s, realEdge(t), client.Options{})
				classify()
				return nil
			}},
		{name: "partial", path: obs.PathPartial, reason: "ok", traced: true, split: "1st_pool",
			run: func(t *testing.T, s sinks) error {
				sess, err := core.NewSession(core.SessionConfig{AppID: "p", ModelName: "tiny", Model: tiny(t),
					Mode: core.ModePartial, SplitLabel: "1st_pool", Conn: dial(t, realEdge(t)), Audit: s.audit})
				if err != nil {
					t.Fatal(err)
				}
				_, err = sess.Classify(mlapp.SyntheticImage(3*16*16, 1))
				return err
			}},
		{name: "shed/hint-saturated", path: obs.PathShed, reason: "hint-saturated",
			run: shedStep(protocol.LoadHint{Saturated: true}, false)},
		{name: "shed/hint-delay", path: obs.PathShed, reason: "hint-delay",
			run: shedStep(protocol.LoadHint{QueueingMillis: 5000}, false)},
		{name: "shed/local-failed", path: obs.PathError, reason: "local-failed", failing: true,
			run: shedStep(protocol.LoadHint{Saturated: true}, true)},
		{name: "chain", path: obs.PathChain, reason: "ok", traced: true,
			run: func(t *testing.T, s sinks) error { return chainExec(t, s, 2, nil, realEdge(t), realEdge(t)) }},
		{name: "chain/replanned", path: obs.PathChain, reason: "replanned", traced: true,
			run: func(t *testing.T, s sinks) error { return chainExec(t, s, 1, nil, deadAddr(t), realEdge(t)) }},
		{name: "chain/degraded-depth", path: obs.PathChain, reason: "degraded-depth", traced: true,
			run: func(t *testing.T, s sinks) error { return chainExec(t, s, 2, nil, realEdge(t)) }},
		{name: "chain/chain-failed", path: obs.PathFallback, reason: "chain-failed", traced: true,
			run: func(t *testing.T, s sinks) error { return chainExec(t, s, 1, nil, deadAddr(t)) }},
		{name: "chain/no-candidates", path: obs.PathLocal, reason: "no-candidates", traced: true,
			run: func(t *testing.T, s sinks) error { return chainExec(t, s, 2, nil) }},
		{name: "chain/local-failed", path: obs.PathError, reason: "local-failed", traced: true, failing: true,
			run: func(t *testing.T, s sinks) error {
				return chainExec(t, s, 2, func(*tensor.Tensor) (*tensor.Tensor, error) {
					return nil, errors.New("no local runtime")
				})
			}},
	}
	// Fallback and error, once per error kind.
	for _, k := range []struct {
		kind   string
		answer func(protocol.Message, uint64) (protocol.Message, bool)
	}{
		{"overloaded", errorFrame(true)},
		{"server-error", errorFrame(false)},
		{"conn-broken", hangUp},
		{"other", wrongType},
	} {
		k := k
		for _, fallback := range []bool{true, false} {
			fallback := fallback
			c := outcome{name: "error/" + k.kind, path: obs.PathError, reason: k.kind, traced: true, failing: true}
			if fallback {
				c = outcome{name: "fallback/" + k.kind, path: obs.PathFallback, reason: k.kind, traced: true}
			}
			c.run = func(t *testing.T, s sinks) error {
				return plainStep(t, s, fakeEdge(t, nil, k.answer), client.Options{LocalFallback: fallback}, false, false)
			}
			cases = append(cases, c)
		}
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := sinks{
				audit:  obs.NewAuditor(obs.AuditorOptions{Keep: 8}),
				flight: telemetry.NewFlightRecorder(0),
			}
			err := tc.run(t, s)
			if (err != nil) != tc.failing {
				t.Fatalf("request error = %v, want failing=%v", err, tc.failing)
			}
			decisions := s.audit.Recent()
			if len(decisions) != 1 {
				t.Fatalf("one request produced decisions %+v", decisions)
			}
			d := decisions[0]
			if d.Path != tc.path || d.Reason != tc.reason {
				t.Errorf("decision = %s/%s, want %s/%s", d.Path, d.Reason, tc.path, tc.reason)
			}
			if (d.TraceID != "") != tc.traced {
				t.Errorf("trace ID %q, want present=%v", d.TraceID, tc.traced)
			}
			if d.SplitLabel != tc.split {
				t.Errorf("split label = %q, want %q", d.SplitLabel, tc.split)
			}
			wantWire := ""
			if tc.traced && !strings.HasPrefix(tc.name, "chain") {
				wantWire = "raw" // TinyNet's body is never worth packing
			}
			if d.WireEncoding != wantWire {
				t.Errorf("wire encoding = %q, want %q", d.WireEncoding, wantWire)
			}
			if d.Path != obs.PathError && d.Measured <= 0 {
				t.Errorf("completed request has no measured latency: %+v", d)
			}
			wantFlight := 0
			switch tc.path {
			case obs.PathShed, obs.PathFallback, obs.PathError:
				wantFlight = 1
			}
			got := 0
			for _, e := range s.flight.Dump() {
				if e.Decision == nil {
					continue // a chain re-plan capture, not a decision
				}
				got++
				if e.Decision.Path != d.Path || e.TraceID != d.TraceID || e.Decision.WireEncoding != d.WireEncoding {
					t.Errorf("flight entry %+v does not carry the decision", e)
				}
			}
			if got != wantFlight {
				t.Errorf("flight decision entries = %d, want %d", got, wantFlight)
			}
		})
	}
}
