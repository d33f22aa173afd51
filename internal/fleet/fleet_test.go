package fleet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"websnap/internal/protocol"
)

// fakeClock drives registry expiry without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func reg(addr string) protocol.FleetRegisterHeader {
	return protocol.FleetRegisterHeader{Addr: addr, Capacity: 4}
}

func TestRegistryTTLExpiry(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	r.Register(reg("a:1"))
	r.Register(reg("b:1"))
	if got := r.Servers(); got != 2 {
		t.Fatalf("servers = %d, want 2", got)
	}
	clk.advance(900 * time.Millisecond)
	r.Register(reg("a:1")) // heartbeat keeps a alive
	clk.advance(200 * time.Millisecond)
	view := r.View()
	if len(view.Servers) != 1 || view.Servers[0].Addr != "a:1" {
		t.Fatalf("after expiry view = %+v, want only a:1", view.Servers)
	}
	clk.advance(2 * time.Second)
	if got := r.Servers(); got != 0 {
		t.Fatalf("after full lapse servers = %d, want 0", got)
	}
}

func TestRegistryReRegistrationAfterRestart(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	first := reg("a:1")
	first.Blobs = []string{"m1", "s1"}
	_, v1 := r.Register(first)

	// Server dies; its registration lapses and its blobs leave the index.
	clk.advance(2 * time.Second)
	if got := r.Servers(); got != 0 {
		t.Fatalf("servers = %d, want 0 after lapse", got)
	}
	if holders := r.Locate([]string{"m1"}); len(holders) != 0 {
		t.Fatalf("expired server still in blob index: %v", holders)
	}

	// Restart: same address, fresh (smaller) blob set after cache loss.
	second := reg("a:1")
	second.Blobs = []string{"m1"}
	servers, v2 := r.Register(second)
	if servers != 1 {
		t.Fatalf("servers = %d after re-registration, want 1", servers)
	}
	if v2 <= v1 {
		t.Fatalf("version did not advance across restart: %d -> %d", v1, v2)
	}
	holders := r.Locate([]string{"m1", "s1"})
	if len(holders["m1"]) != 1 || holders["m1"][0] != "a:1" {
		t.Fatalf("m1 holders = %v", holders["m1"])
	}
	if _, ok := holders["s1"]; ok {
		t.Fatal("stale blob s1 survived re-registration with a smaller set")
	}
}

func TestRegistryViewAges(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second, Now: clk.now})
	r.Register(reg("a:1"))
	clk.advance(1500 * time.Millisecond)
	view := r.View()
	if got := view.Servers[0].AgeMillis; got != 1500 {
		t.Fatalf("AgeMillis = %d, want 1500", got)
	}
}

// startWireRegistry runs a RegistryServer on a real listener.
func startWireRegistry(t *testing.T, r *Registry) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(r, nil)
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	return ln.Addr().String(), func() { srv.Close(); <-done }
}

// teeConn copies everything written to the connection into w.
type teeConn struct {
	net.Conn
	w io.Writer
}

func (c teeConn) Write(p []byte) (int, error) {
	c.w.Write(p) //nolint:errcheck // a bytes.Buffer
	return c.Conn.Write(p)
}

func TestWireRegisterListLocate(t *testing.T) {
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second})
	addr, stop := startWireRegistry(t, r)
	defer stop()

	// The client's transport records what it writes, so the heartbeat's
	// frame can be pinned byte for byte.
	var sent bytes.Buffer
	c := NewRegistryClient(addr, ClientOptions{Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		return teeConn{conn, &sent}, err
	}})
	h := reg("edge-a:9000")
	h.Blobs = []string{"blob1"}
	ack, err := c.Register(h)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	const wantFrame = "PNSW\x01\x0c\x35\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		`{"addr":"edge-a:9000","capacity":4,"blobs":["blob1"]}`
	if sent.String() != wantFrame {
		t.Errorf("heartbeat frame = %q, want %q", sent.String(), wantFrame)
	}
	if ack.Servers != 1 || ack.Version == 0 {
		t.Fatalf("ack = %+v", ack)
	}
	if v := r.View().Servers; len(v) != 1 || v[0].Capacity != 4 {
		t.Fatalf("registry view after a capacity-4 heartbeat = %+v", v)
	}
	members, err := c.Members()
	if err != nil {
		t.Fatalf("Members: %v", err)
	}
	if len(members) != 1 || members[0] != "edge-a:9000" {
		t.Fatalf("members = %v", members)
	}
	holders, _, err := c.Locate([]string{"blob1", "missing"}, "")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if len(holders) != 1 || holders["blob1"][0] != "edge-a:9000" {
		t.Fatalf("holders = %v", holders)
	}
}

func TestClientNoCacheNoRegistry(t *testing.T) {
	c := NewRegistryClient("127.0.0.1:1", ClientOptions{
		Timeout: 200 * time.Millisecond,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("refused")
		},
	})
	if members, err := c.Members(); err == nil {
		t.Fatalf("Members with no registry = %v, want error", members)
	}
}

func TestAgentKeepsRegistrationLive(t *testing.T) {
	clk := struct{}{} // real clock: agent heartbeats are time-driven
	_ = clk
	r := NewRegistry(RegistryOptions{TTL: 400 * time.Millisecond})
	addr, stop := startWireRegistry(t, r)
	defer stop()

	a, err := StartAgent(AgentConfig{
		Client:   NewRegistryClient(addr, ClientOptions{}),
		Addr:     "edge-a:9000",
		Capacity: 2,
		Interval: 100 * time.Millisecond,
		Blobs:    func() []string { return []string{"m1"} },
	})
	if err != nil {
		t.Fatalf("StartAgent: %v", err)
	}
	time.Sleep(time.Second) // several TTLs: only heartbeats keep it alive
	if got := r.Servers(); got != 1 {
		t.Fatalf("servers = %d during heartbeats, want 1", got)
	}
	a.Close()
	time.Sleep(600 * time.Millisecond)
	if got := r.Servers(); got != 0 {
		t.Fatalf("servers = %d after agent close, want 0", got)
	}
}

// alwaysLive samples r's membership every 10 ms for 0.5 s and fails on
// each sample that lacks addr.
func alwaysLive(t *testing.T, r *Registry, addr string) {
	t.Helper()
	const samples = 50
	absent := 0
	for i := 0; i < samples; i++ {
		time.Sleep(10 * time.Millisecond)
		if !slices.ContainsFunc(r.View().Servers, func(s protocol.FleetServer) bool { return s.Addr == addr }) {
			absent++
		}
	}
	if absent > 0 {
		t.Fatalf("%s absent in %d of %d samples", addr, absent, samples)
	}
}

// TestAgentHeartbeatsAtGrantedTTL: the registry owns the registration
// lifetime. Each acknowledgement grants the registry's TTL, and an agent
// with no Interval of its own heartbeats at a third of it, so a registry
// TTL far below DefaultTTL never drops a live member between heartbeats.
func TestAgentHeartbeatsAtGrantedTTL(t *testing.T) {
	const ttl = 90 * time.Millisecond
	r := NewRegistry(RegistryOptions{TTL: ttl})
	addr, stop := startWireRegistry(t, r)
	defer stop()
	c := NewRegistryClient(addr, ClientOptions{})
	ack, err := c.Register(reg("probe:1"))
	if err != nil {
		t.Fatal(err)
	}
	if ack.TTLMillis != ttl.Milliseconds() {
		t.Fatalf("ack grants %d ms, want the registry's %d", ack.TTLMillis, ttl.Milliseconds())
	}
	a, err := StartAgent(AgentConfig{Client: c, Addr: "edge-a:9000", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	alwaysLive(t, r, "edge-a:9000")
}

// grantingClient returns a client whose registry acknowledges every
// registration with ttlMillis, whatever it is.
func grantingClient(ttlMillis int64) *RegistryClient {
	return NewRegistryClient("registry", ClientOptions{Dial: func(string, time.Duration) (net.Conn, error) {
		agent, registry := net.Pipe()
		go func() {
			defer registry.Close()
			if _, err := protocol.Read(registry); err != nil {
				return
			}
			ack, err := protocol.Encode(protocol.MsgFleetRegistered,
				protocol.FleetRegisteredHeader{Servers: 1, Version: 1, TTLMillis: ttlMillis}, nil)
			if err == nil {
				protocol.Write(registry, ack) //nolint:errcheck // the agent sees a short read
			}
		}()
		return agent, nil
	}})
}

// TestAgentGuardsGrantedTTL: the granted TTL comes off the wire, so the
// agent's period must not follow it into a panic or a heartbeat storm. A
// grant that is not positive counts as DefaultTTL and one below MinTTL as
// MinTTL.
func TestAgentGuardsGrantedTTL(t *testing.T) {
	for _, tc := range []struct {
		ttlMillis int64
		want      time.Duration
	}{
		{-5, DefaultTTL / 3},
		{0, DefaultTTL / 3},
		{1, MinTTL / 3},
		{90, 30 * time.Millisecond},
	} {
		a := &Agent{cfg: AgentConfig{Client: grantingClient(tc.ttlMillis), Addr: "edge-a:9000"}}
		got, err := a.heartbeat()
		if err != nil || got != tc.want {
			t.Errorf("grant of %d ms: period %v, %v; want %v", tc.ttlMillis, got, err, tc.want)
		}
	}
	a, err := StartAgent(AgentConfig{Client: grantingClient(-5), Addr: "edge-a:9000"})
	if err != nil {
		t.Fatalf("StartAgent under a negative grant: %v", err)
	}
	a.Close()
}

// TestAgentFollowsChangedTTL: when the registry comes back with a shorter
// TTL (a fleetd restarted with a smaller -ttl), the agent's next heartbeat
// learns it and the ticker moves to a third of the new TTL.
func TestAgentFollowsChangedTTL(t *testing.T) {
	slow := NewRegistry(RegistryOptions{TTL: 600 * time.Millisecond})
	slowAddr, stopSlow := startWireRegistry(t, slow)
	defer stopSlow()
	fast := NewRegistry(RegistryOptions{TTL: 90 * time.Millisecond})
	fastAddr, stopFast := startWireRegistry(t, fast)
	defer stopFast()

	var target atomic.Value
	target.Store(slowAddr)
	c := NewRegistryClient("registry", ClientOptions{Dial: func(_ string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", target.Load().(string), timeout)
	}})
	a, err := StartAgent(AgentConfig{Client: c, Addr: "edge-a:9000", Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	target.Store(fastAddr)
	deadline := time.Now().Add(2 * time.Second)
	for fast.Servers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat reached the restarted registry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	alwaysLive(t, fast, "edge-a:9000")
}
