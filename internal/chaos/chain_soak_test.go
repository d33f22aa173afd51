package chaos_test

// Mid-chain chaos soak for pipeline-parallel partial inference. A client
// drives the K-way chain executor against a small edge fleet while the
// chaos injector mangles both the client's connections and every server's
// hop-to-hop relay dials, and a mid-chain server is killed outright
// halfway through. Invariants, per event:
//
//   - the returned result is bit-identical to local execution, whatever
//     path (full chain, re-planned shorter chain, or local fallback) the
//     request took — a wrong or duplicated result is a hard failure;
//   - exactly one audit decision is recorded per event;
//   - after the hop death, the executor re-plans or falls back — the dead
//     server never appears in a successful manifest, and re-plans are
//     captured by the flight recorder;
//   - successful chain spans stay correctly parented: hop N's chain_exec
//     span nests hop N+1's, with addresses matching the manifest.
//
// Every failure message carries the soak seed for replay.

import (
	"net"
	"sync"
	"testing"
	"time"

	"websnap/internal/chaos"
	"websnap/internal/client"
	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/roam"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
)

// startChainSoakServer runs a chain-capable edge server whose relay dials
// pass through the chaos injector.
func startChainSoakServer(t *testing.T, inj *chaos.Injector) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := core.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := edge.NewServer(edge.Config{
		Catalog:       cat,
		Installed:     true,
		AdvertiseAddr: ln.Addr().String(),
		Workers:       2,
		QueueDepth:    8,
		// Same regime as the other soak servers: without deadlines, a
		// corrupted length prefix wedges a server read forever and hangs
		// shutdown.
		IdleTimeout:     10 * time.Second,
		TransferTimeout: 2 * time.Second,
		PeerDial: func(peer string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", peer, timeout)
			if err != nil {
				return nil, err
			}
			return inj.WrapConn(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	return ln.Addr().String(), func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}
}

// chainSoakInput builds the deterministic soak input for the model.
func chainSoakInput(t *testing.T, model *nn.Network) *tensor.Tensor {
	t.Helper()
	in, err := tensor.New(model.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	data := in.Data()
	s := uint64(soakBaseSeed())
	for i := range data {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		data[i] = float32(s%100000)/10000 - 1
	}
	return in
}

// assertChainSpanParenting walks the merged span tree and requires one
// correctly-addressed chain_exec level per manifest hop.
func assertChainSpanParenting(t *testing.T, seed int64, event int, hops []protocol.ChainHop, span *protocol.SpanNode) {
	t.Helper()
	for i, hop := range hops {
		if span == nil {
			t.Fatalf("seed %d event %d: no span for hop %d of %v", seed, event, i+1, hops)
		}
		if span.Op != "chain_exec" {
			t.Fatalf("seed %d event %d: hop %d span op %q", seed, event, i+1, span.Op)
		}
		if span.Addr != hop.Addr {
			t.Fatalf("seed %d event %d: hop %d span addr %q, want %q", seed, event, i+1, span.Addr, hop.Addr)
		}
		var next *protocol.SpanNode
		for _, c := range span.Children {
			if c.Op == "chain_exec" {
				next = c
			}
		}
		span = next
	}
	if span != nil {
		t.Fatalf("seed %d event %d: extra chain_exec span beyond %d hops", seed, event, len(hops))
	}
}

// TestChainSoakMidHopDeath is the chain protocol's chaos soak: connection
// faults everywhere, plus a deliberate mid-chain server kill halfway in.
func TestChainSoakMidHopDeath(t *testing.T) {
	seed := soakBaseSeed()
	events := 40
	if testing.Short() {
		events = 10
	}
	t.Logf("chain soak: %d events, seed %d (override with SOAK_SEED)", events, seed)

	inj := chaos.New(seed, chaos.Options{
		// Refusal would just retry-loop the executor's dials; connection
		// faults are the interesting failure mode here.
		RefuseProb: -1,
	})
	var addrs []string
	var shutdowns []func()
	for i := 0; i < 4; i++ {
		addr, shutdown := startChainSoakServer(t, inj)
		t.Cleanup(shutdown)
		addrs = append(addrs, addr)
		shutdowns = append(shutdowns, shutdown)
	}
	deadAddr := addrs[1]

	model, err := models.BuildTinyNet("chain-soak", 3)
	if err != nil {
		t.Fatal(err)
	}
	in := chainSoakInput(t, model)
	want, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}

	audit := obs.NewAuditor(obs.AuditorOptions{Keep: events})
	flight := telemetry.NewFlightRecorder(0)
	ex, err := roam.NewChainExecutor(roam.ChainConfig{
		AppID:     "chain-soak",
		ModelName: model.Name(),
		Model:     model,
		Depth:     3,
		Candidates: func() []protocol.FleetServer {
			out := make([]protocol.FleetServer, len(addrs))
			for i, a := range addrs {
				out[i] = protocol.FleetServer{Addr: a}
			}
			return out
		},
		Dial: func(addr string) (*client.Conn, error) {
			return client.DialWrapped(addr, inj.WrapConn)
		},
		Auditor: audit,
		Flight:  flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	pathCounts := map[obs.DecisionPath]int{}
	postKillChains := 0
	for event := 0; event < events; event++ {
		if event == events/2 {
			// Mid-chain hop death: the candidate list keeps advertising
			// the dead address, so every subsequent plan must discover
			// the failure and re-plan around it.
			shutdowns[1]()
		}
		out, report, err := ex.Execute(in)
		if err != nil {
			t.Fatalf("seed %d event %d: execute: %v", seed, event, err)
		}
		pathCounts[report.Path]++
		if !tensor.SameShape(out, want) {
			t.Fatalf("seed %d event %d: output shape %v != local %v", seed, event, out.Shape(), want.Shape())
		}
		got, exp := out.Data(), want.Data()
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("seed %d event %d (path %s): output diverges at %d: %v != %v",
					seed, event, report.Path, i, got[i], exp[i])
			}
		}
		if report.Path == obs.PathChain {
			for _, h := range report.Hops {
				if event > events/2 && h.Addr == deadAddr {
					t.Fatalf("seed %d event %d: dead hop %s in successful manifest %v",
						seed, event, deadAddr, report.Hops)
				}
			}
			assertChainSpanParenting(t, seed, event, report.Hops, report.Span)
			if event >= events/2 {
				postKillChains++
			}
		}
	}

	sum := audit.Summary()
	if sum.Total != int64(events) {
		t.Fatalf("seed %d: %d audit decisions for %d events (want exactly one each): %+v",
			seed, sum.Total, events, sum.Mix)
	}
	if ex.Replans() == 0 {
		t.Fatalf("seed %d: hop death never triggered a re-plan (paths %v)", seed, pathCounts)
	}
	replanCaptures := 0
	for _, e := range flight.Dump() {
		if e.Reason == telemetry.FlightReplan {
			replanCaptures++
		}
	}
	if replanCaptures == 0 {
		t.Fatalf("seed %d: re-plans happened but none were captured in the flight recorder", seed)
	}
	if postKillChains == 0 {
		t.Fatalf("seed %d: no successful chain execution after the hop death (paths %v)", seed, pathCounts)
	}
	t.Logf("chain soak: paths %v, executor re-plans %d, flight captures %d", pathCounts, ex.Replans(), replanCaptures)
}
