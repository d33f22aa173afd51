package fleet

import (
	"bytes"
	"errors"
	"io"
	"net"
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

func TestRegistryPerServerTTL(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	long := reg("long:1")
	long.TTLMillis = 10_000
	r.Register(long)
	r.Register(reg("short:1"))
	clk.advance(5 * time.Second)
	view := r.View()
	if len(view.Servers) != 1 || view.Servers[0].Addr != "long:1" {
		t.Fatalf("view = %+v, want only long:1", view.Servers)
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
	view, err := c.FetchView()
	if err != nil {
		t.Fatalf("FetchView: %v", err)
	}
	if len(view.Servers) != 1 || view.Servers[0].Addr != "edge-a:9000" || view.Servers[0].Capacity != 4 {
		t.Fatalf("view = %+v", view.Servers)
	}
	holders, _, err := c.Locate([]string{"blob1", "missing"}, "")
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if len(holders) != 1 || holders["blob1"][0] != "edge-a:9000" {
		t.Fatalf("holders = %v", holders)
	}
}

func TestClientCachedViewFallback(t *testing.T) {
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second})
	r.Register(reg("a:1"))
	addr, stop := startWireRegistry(t, r)

	c := NewRegistryClient(addr, ClientOptions{Timeout: 500 * time.Millisecond})
	view, cached, err := c.View()
	if err != nil || cached {
		t.Fatalf("live View: cached=%v err=%v", cached, err)
	}
	if len(view.Servers) != 1 {
		t.Fatalf("view = %+v", view.Servers)
	}

	// Registry goes away: View degrades to the last-known-good copy.
	stop()
	view, cached, err = c.View()
	if err != nil {
		t.Fatalf("degraded View: %v", err)
	}
	if !cached {
		t.Fatal("degraded View not marked cached")
	}
	if len(view.Servers) != 1 || view.Servers[0].Addr != "a:1" {
		t.Fatalf("degraded view = %+v", view.Servers)
	}
}

func TestClientNoCacheNoRegistry(t *testing.T) {
	c := NewRegistryClient("127.0.0.1:1", ClientOptions{
		Timeout: 200 * time.Millisecond,
		Dial: func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("refused")
		},
	})
	if _, cached, err := c.View(); err == nil || cached {
		t.Fatalf("View with no cache: cached=%v err=%v, want error", cached, err)
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
		TTL:      400 * time.Millisecond,
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
