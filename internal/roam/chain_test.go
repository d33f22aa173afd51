package roam

import (
	"net"
	"sync"
	"testing"
	"time"

	"websnap/internal/core"
	"websnap/internal/edge"
	"websnap/internal/models"
	"websnap/internal/nn"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/tensor"
)

// startChainEdge runs a chain-capable edge server that advertises its own
// listen address (so chain spans and relays carry the hop's identity).
func startChainEdge(t *testing.T) (addr string, shutdown func()) {
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
	var once sync.Once
	return ln.Addr().String(), func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}
}

// chainTestModel builds a deterministic small network plus an input.
func chainTestModel(t *testing.T) (*nn.Network, *tensor.Tensor) {
	t.Helper()
	model, err := models.BuildTinyNet("roam-chain", 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := tensor.New(model.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	data := in.Data()
	s := uint64(77665544)
	for i := range data {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		data[i] = float32(s%100000)/10000 - 1
	}
	return model, in
}

// mixCount returns the decision count for one path in an audit summary.
func mixCount(sum obs.AuditSummary, path obs.DecisionPath) int64 {
	for _, pc := range sum.Mix {
		if pc.Path == path {
			return pc.Count
		}
	}
	return 0
}

// staticCandidates returns a fixed candidate supplier.
func staticCandidates(addrs ...string) func() []protocol.FleetServer {
	return func() []protocol.FleetServer {
		out := make([]protocol.FleetServer, len(addrs))
		for i, a := range addrs {
			out[i] = protocol.FleetServer{Addr: a}
		}
		return out
	}
}

func TestChainExecutorEndToEnd(t *testing.T) {
	model, in := chainTestModel(t)
	want, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, shutdown := startChainEdge(t)
		t.Cleanup(shutdown)
		addrs = append(addrs, addr)
	}
	audit := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
	ex, err := NewChainExecutor(ChainConfig{
		AppID:           "chain-app",
		ModelName:       model.Name(),
		Model:           model,
		Depth:           3,
		RequireDenature: true,
		Candidates:      staticCandidates(addrs...),
		Auditor:         audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	out, report, err := ex.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if report.Path != obs.PathChain {
		t.Fatalf("path = %q, want chain", report.Path)
	}
	if len(report.Hops) != 3 {
		t.Fatalf("manifest has %d hops, want 3: %+v", len(report.Hops), report.Hops)
	}
	// The manifest must tile the network: contiguous, strictly increasing
	// ranges ending at the last layer, starting past at least one client
	// layer (denature).
	if report.Hops[0].From < 1 {
		t.Fatalf("first server hop starts at %d; client kept no layer", report.Hops[0].From)
	}
	prev := report.Hops[0].From
	for i, h := range report.Hops {
		if h.From != prev || h.To <= h.From {
			t.Fatalf("hop %d range [%d,%d) not contiguous after %d", i+1, h.From, h.To, prev)
		}
		prev = h.To
	}
	if prev != model.NumLayers() {
		t.Fatalf("chain ends at layer %d, want %d", prev, model.NumLayers())
	}
	if !tensor.SameShape(out, want) {
		t.Fatalf("output shape %v != local %v", out.Shape(), want.Shape())
	}
	got, exp := out.Data(), want.Data()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("chain output diverges at %d: %v != %v", i, got[i], exp[i])
		}
	}
	if report.Predicted <= 0 || report.Measured <= 0 {
		t.Errorf("report timings not populated: %+v", report)
	}
	if report.Span == nil {
		t.Error("no merged span tree returned")
	}
	sum := audit.Summary()
	if sum.Total != 1 || mixCount(sum, obs.PathChain) != 1 {
		t.Fatalf("audit mix = %+v, want exactly one chain decision", sum)
	}

	// A second execution reuses cached connections and audits once more.
	if _, _, err := ex.Execute(in); err != nil {
		t.Fatal(err)
	}
	if sum := audit.Summary(); sum.Total != 2 || mixCount(sum, obs.PathChain) != 2 {
		t.Fatalf("audit mix after second exec = %+v", sum)
	}
}

// TestChainExecutorReplanOnHopDeath kills the middle hop between requests:
// the next Execute must see the relay failure, attribute it to the dead
// hop, exclude it, re-plan a 2-server chain, and still return bit-identical
// output — with exactly one audit decision and a flight-recorder capture.
func TestChainExecutorReplanOnHopDeath(t *testing.T) {
	model, in := chainTestModel(t)
	want, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var shutdowns []func()
	for i := 0; i < 3; i++ {
		addr, shutdown := startChainEdge(t)
		t.Cleanup(shutdown)
		addrs = append(addrs, addr)
		shutdowns = append(shutdowns, shutdown)
	}
	audit := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
	flight := telemetry.NewFlightRecorder(0)
	ex, err := NewChainExecutor(ChainConfig{
		AppID:      "chain-app",
		ModelName:  model.Name(),
		Model:      model,
		Depth:      3,
		Candidates: staticCandidates(addrs...),
		Auditor:    audit,
		Flight:     flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	if _, report, err := ex.Execute(in); err != nil || report.Path != obs.PathChain {
		t.Fatalf("healthy chain exec: %v (path %q)", err, report.Path)
	}

	// Kill the middle hop; the first hop's relay to it will fail.
	shutdowns[1]()

	out, report, err := ex.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if report.Path != obs.PathChain {
		t.Fatalf("path = %q, want chain after re-plan", report.Path)
	}
	if report.Replans == 0 {
		t.Fatal("no re-plan recorded despite dead hop")
	}
	for _, h := range report.Hops {
		if h.Addr == addrs[1] {
			t.Fatalf("dead hop %s still in manifest %+v", addrs[1], report.Hops)
		}
	}
	got, exp := out.Data(), want.Data()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("re-planned output diverges at %d: %v != %v", i, got[i], exp[i])
		}
	}
	sum := audit.Summary()
	if sum.Total != 2 || mixCount(sum, obs.PathChain) != 2 {
		t.Fatalf("audit mix = %+v, want two chain decisions", sum)
	}
	replans := 0
	for _, e := range flight.Dump() {
		if e.Reason == telemetry.FlightReplan {
			replans++
			if e.TraceID != report.TraceID {
				t.Errorf("replan capture trace %q, want %q", e.TraceID, report.TraceID)
			}
		}
	}
	if replans == 0 {
		t.Fatal("no flight-recorder capture for the re-plan")
	}
}

// TestChainExecutorFallbackLocal points the executor at a dead address
// only: the chain fails, the executor falls back to local execution, and
// the (single) audit decision says so.
func TestChainExecutorFallbackLocal(t *testing.T) {
	model, in := chainTestModel(t)
	want, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	audit := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
	ex, err := NewChainExecutor(ChainConfig{
		AppID:      "chain-app",
		ModelName:  model.Name(),
		Model:      model,
		Candidates: staticCandidates(dead),
		Auditor:    audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	out, report, err := ex.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if report.Path != obs.PathFallback {
		t.Fatalf("path = %q, want fallback", report.Path)
	}
	if report.Replans == 0 {
		t.Fatal("dead hop produced no re-plan round")
	}
	got, exp := out.Data(), want.Data()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("fallback output diverges at %d", i)
		}
	}
	sum := audit.Summary()
	if sum.Total != 1 || mixCount(sum, obs.PathFallback) != 1 {
		t.Fatalf("audit mix = %+v, want exactly one fallback decision", sum)
	}
}

// TestChainExecutorLocalNoCandidates runs with an empty fleet: pure local
// execution, audited as such.
func TestChainExecutorLocalNoCandidates(t *testing.T) {
	model, in := chainTestModel(t)
	audit := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
	ex, err := NewChainExecutor(ChainConfig{
		AppID:      "chain-app",
		ModelName:  model.Name(),
		Model:      model,
		Candidates: func() []protocol.FleetServer { return nil },
		Auditor:    audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	_, report, err := ex.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if report.Path != obs.PathLocal {
		t.Fatalf("path = %q, want local", report.Path)
	}
	sum := audit.Summary()
	if sum.Total != 1 || mixCount(sum, obs.PathLocal) != 1 {
		t.Fatalf("audit mix = %+v, want exactly one local decision", sum)
	}
}

// TestChainExecutorDegradesDepth asks for a deeper chain than there are
// candidates and still gets a working (shorter) one.
func TestChainExecutorDegradesDepth(t *testing.T) {
	model, in := chainTestModel(t)
	want, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startChainEdge(t)
	t.Cleanup(shutdown)
	audit := obs.NewAuditor(obs.AuditorOptions{Keep: 16})
	ex, err := NewChainExecutor(ChainConfig{
		AppID:      "chain-app",
		ModelName:  model.Name(),
		Model:      model,
		Depth:      4,
		Candidates: staticCandidates(addr),
		Auditor:    audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	out, report, err := ex.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if report.Path != obs.PathChain || len(report.Hops) != 1 {
		t.Fatalf("path %q hops %+v, want a 1-server chain", report.Path, report.Hops)
	}
	got, exp := out.Data(), want.Data()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("degraded-depth output diverges at %d", i)
		}
	}
}

// TestChainCandidatesFromRoamer checks the roamer-side candidate view:
// fresh healthy servers in selection order, saturation and queueing hints
// carried through.
func TestChainCandidatesFromRoamer(t *testing.T) {
	probe := newLoadProbe()
	probe.set("fast", time.Millisecond, &protocol.LoadHint{QueueingMillis: 4})
	probe.set("slow", 20*time.Millisecond, &protocol.LoadHint{QueueingMillis: 1})
	probe.set("sat", 2*time.Millisecond, &protocol.LoadHint{Saturated: true})
	probe.set("dead", -1, nil)
	r, err := New(Config{Servers: []string{"slow", "fast", "sat", "dead"}, Probe: probe.probe, Dial: fakeDial(t)})
	if err != nil {
		t.Fatal(err)
	}
	r.ProbeAll()
	got := r.ChainCandidates()
	if len(got) != 3 {
		t.Fatalf("candidates = %+v, want 3 (dead excluded)", got)
	}
	if got[0].Addr != "fast" || got[1].Addr != "slow" {
		t.Fatalf("order = %s,%s; want fast,slow", got[0].Addr, got[1].Addr)
	}
	if got[2].Addr != "sat" || got[2].Load == nil || !got[2].Load.Saturated {
		t.Fatalf("saturated server not last or not flagged: %+v", got)
	}
	if got[0].Load == nil || got[0].Load.QueueingDelay() != 4*time.Millisecond {
		t.Errorf("load hint %+v, want a 4ms queueing delay", got[0].Load)
	}
}

// TestChainExecutorSkipsSaturatedCandidates pins what the executor takes
// from a candidate's load hint: a server advertising a full admission queue
// never joins a chain, even when skipping it leaves the chain short of its
// target depth.
func TestChainExecutorSkipsSaturatedCandidates(t *testing.T) {
	model, in := chainTestModel(t)
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, shutdown := startChainEdge(t)
		t.Cleanup(shutdown)
		addrs = append(addrs, addr)
	}
	ex, err := NewChainExecutor(ChainConfig{
		AppID:           "chain-app",
		ModelName:       model.Name(),
		Model:           model,
		Depth:           2,
		RequireDenature: true,
		Candidates: func() []protocol.FleetServer {
			return []protocol.FleetServer{
				{Addr: addrs[0], Load: &protocol.LoadHint{Saturated: true}},
				{Addr: addrs[1], Load: &protocol.LoadHint{QueueingMillis: 7}},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	_, report, err := ex.Execute(in)
	if err != nil {
		t.Fatal(err)
	}
	if report.Path != obs.PathChain || len(report.Hops) != 1 || report.Hops[0].Addr != addrs[1] {
		t.Fatalf("path %q over %+v, want a one-hop chain on the unsaturated %s", report.Path, report.Hops, addrs[1])
	}
}
