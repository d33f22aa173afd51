package edge

import (
	"errors"
	"net"
	"testing"

	"websnap/internal/client"
	"websnap/internal/nn"
	"websnap/internal/protocol"
	"websnap/internal/tensor"
)

// startHopServer runs an installed edge server whose AdvertiseAddr is its
// own listen address, so chain spans carry the hop's identity.
func startHopServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = testCatalog(t)
	}
	cfg.Installed = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdvertiseAddr = ln.Addr().String()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// chainInput builds a deterministic activation-like input for the model.
func chainInput(t *testing.T, model *nn.Network) *tensor.Tensor {
	t.Helper()
	in, err := tensor.New(model.InputShape()...)
	if err != nil {
		t.Fatal(err)
	}
	data := in.Data()
	s := uint64(424243)
	for i := range data {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		data[i] = float32(s%100000)/10000 - 1
	}
	return in
}

// chainRanges splits layers [1, N) of the model over k hops (the client
// keeps layer ranges [0, 1) to denature the input).
func chainRanges(t *testing.T, model *nn.Network, addrs []string) []protocol.ChainHop {
	t.Helper()
	n := model.NumLayers()
	k := len(addrs)
	if n-1 < k {
		t.Fatalf("model has %d layers, too few for %d hops", n, k)
	}
	hops := make([]protocol.ChainHop, k)
	from := 1
	for i := range hops {
		to := 1 + (n-1)*(i+1)/k
		hops[i] = protocol.ChainHop{Addr: addrs[i], From: from, To: to}
		from = to
	}
	hops[k-1].To = n
	return hops
}

// preSendAll ships the model to every chain server.
func preSendAll(t *testing.T, model *nn.Network, addrs []string) {
	t.Helper()
	for _, addr := range addrs {
		conn := dial(t, addr)
		if _, err := conn.PreSendModel("chain-app", model.Name(), model, ""); err != nil {
			t.Fatalf("pre-send to %s: %v", addr, err)
		}
	}
}

// TestChainExecBitIdentical drives a 3-hop chain and requires the output to
// be bit-identical to a purely local forward pass.
func TestChainExecBitIdentical(t *testing.T) {
	model := tinyModel(t, "tiny")
	var addrs []string
	for i := 0; i < 3; i++ {
		_, addr := startHopServer(t, Config{})
		addrs = append(addrs, addr)
	}
	preSendAll(t, model, addrs)
	hops := chainRanges(t, model, addrs)

	in := chainInput(t, model)
	want, err := model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	boundary, err := model.ForwardRange(in, 0, hops[0].From)
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addrs[0])
	out, err := conn.ChainExec("chain-app", model.Name(), hops, boundary, "")
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(out.Output, want) {
		t.Fatalf("chain output shape %v != local %v", out.Output.Shape(), want.Shape())
	}
	got, exp := out.Output.Data(), want.Data()
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("chain output diverges at %d: %v != %v", i, got[i], exp[i])
		}
	}
}

// TestChainSpanParenting asserts the merged trace nests hop under hop:
// the first hop's chain_exec span carries the second hop's as a child, and
// so on down the chain.
func TestChainSpanParenting(t *testing.T) {
	model := tinyModel(t, "tiny")
	var addrs []string
	for i := 0; i < 3; i++ {
		_, addr := startHopServer(t, Config{})
		addrs = append(addrs, addr)
	}
	preSendAll(t, model, addrs)
	hops := chainRanges(t, model, addrs)

	in := chainInput(t, model)
	boundary, err := model.ForwardRange(in, 0, hops[0].From)
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addrs[0])
	out, err := conn.ChainExec("chain-app", model.Name(), hops, boundary, "trace-chain-1")
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "trace-chain-1" {
		t.Fatalf("trace ID %q not preserved", out.TraceID)
	}
	span := out.Span
	for i, hop := range hops {
		if span == nil {
			t.Fatalf("no span for hop %d", i+1)
		}
		if span.Op != "chain_exec" {
			t.Fatalf("hop %d span op %q", i+1, span.Op)
		}
		if span.Addr != hop.Addr {
			t.Fatalf("hop %d span addr %q, want %q", i+1, span.Addr, hop.Addr)
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
		t.Fatalf("unexpected extra chain_exec span %+v", span)
	}
}

// TestChainHopDeathAttribution kills the middle hop and requires the error
// to name it (1-based index 2), so the planner excludes the right server.
func TestChainHopDeathAttribution(t *testing.T) {
	model := tinyModel(t, "tiny")
	var addrs []string
	for i := 0; i < 3; i++ {
		_, addr := startHopServer(t, Config{})
		addrs = append(addrs, addr)
	}
	preSendAll(t, model, addrs)
	hops := chainRanges(t, model, addrs)

	in := chainInput(t, model)
	boundary, err := model.ForwardRange(in, 0, hops[0].From)
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addrs[0])
	// Point the middle hop at a dead address: the first hop's relay fails
	// and must attribute the failure to manifest index 2.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadLn.Addr().String()
	deadLn.Close()
	hops[1].Addr = dead

	_, err = conn.ChainExec("chain-app", model.Name(), hops, boundary, "")
	if err == nil {
		t.Fatal("chain exec over dead hop succeeded")
	}
	var che *client.ChainHopError
	if !errors.As(err, &che) {
		t.Fatalf("error %v is not a ChainHopError", err)
	}
	if che.Hop != 2 {
		t.Fatalf("failure attributed to hop %d, want 2", che.Hop)
	}
	if !errors.Is(err, client.ErrServerError) {
		t.Fatalf("chain error %v does not match ErrServerError", err)
	}
}

// TestChainModelMissing requires a hop without the pre-sent model to name
// itself in the failure.
func TestChainModelMissing(t *testing.T) {
	model := tinyModel(t, "tiny")
	var addrs []string
	for i := 0; i < 2; i++ {
		_, addr := startHopServer(t, Config{})
		addrs = append(addrs, addr)
	}
	// Only the first hop gets the model.
	preSendAll(t, model, addrs[:1])
	hops := chainRanges(t, model, addrs)

	in := chainInput(t, model)
	boundary, err := model.ForwardRange(in, 0, hops[0].From)
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addrs[0])
	_, err = conn.ChainExec("chain-app", model.Name(), hops, boundary, "")
	var che *client.ChainHopError
	if !errors.As(err, &che) {
		t.Fatalf("error %v is not a ChainHopError", err)
	}
	if che.Hop != 2 {
		t.Fatalf("failure attributed to hop %d, want 2", che.Hop)
	}
}
