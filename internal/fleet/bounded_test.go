package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"websnap/internal/protocol"
)

// TestRegistryVersionPrunes pins that Version applies pending TTL lapses
// before reporting: a caller comparing Version against a concurrent View
// must never see the stale pre-expiry number.
func TestRegistryVersionPrunes(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(RegistryOptions{TTL: time.Second, Now: clk.now})
	r.Register(reg("a:1"))
	_, v := r.Register(reg("b:1"))
	if got := r.Version(); got != v {
		t.Fatalf("Version = %d, want %d", got, v)
	}
	clk.advance(2 * time.Second)
	// Both registrations have lapsed but nothing has touched the registry
	// since; Version alone must surface the expiry bumps.
	if got := r.Version(); got != v+2 {
		t.Fatalf("Version after lapse = %d, want %d (two expiries applied)", got, v+2)
	}
	if got := r.View().Version; got != v+2 {
		t.Fatalf("View.Version = %d disagrees with Version", got)
	}
}

// TestAgentHeartbeatCapsBlobAdvertisement pins the heartbeat bound: a
// server holding more keys than one register header can carry still
// registers (advertising the hot prefix) instead of overflowing
// protocol.MaxHeaderLen and dropping out of the fleet.
func TestAgentHeartbeatCapsBlobAdvertisement(t *testing.T) {
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second})
	addr, stop := startWireRegistry(t, r)
	defer stop()

	// ~200-byte keys x 20000 would be a ~4 MiB header — far past the 1 MiB
	// frame bound. The default cap keeps the first 4096 (~800 KiB).
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d-%s", i, strings.Repeat("k", 190))
	}
	a, err := StartAgent(AgentConfig{
		Client:   NewRegistryClient(addr, ClientOptions{}),
		Addr:     "edge-big:9000",
		Capacity: 2,
		TTL:      10 * time.Second,
		Blobs:    func() []string { return keys },
	})
	if err != nil {
		t.Fatalf("StartAgent with oversized blob set: %v", err)
	}
	defer a.Close()

	if got := r.Servers(); got != 1 {
		t.Fatalf("servers = %d, want 1", got)
	}
	// The hot prefix is advertised; the truncated tail is not.
	if holders := r.Locate([]string{keys[0]}); len(holders[keys[0]]) != 1 {
		t.Fatalf("hot key not advertised: %v", holders)
	}
	last := keys[DefaultMaxAdvertisedBlobs-1]
	if holders := r.Locate([]string{last}); len(holders[last]) != 1 {
		t.Fatal("key at the cap boundary not advertised")
	}
	beyond := keys[DefaultMaxAdvertisedBlobs]
	if holders := r.Locate([]string{beyond}); len(holders) != 0 {
		t.Fatalf("key beyond the cap advertised: %v", holders)
	}
}

// TestAgentHeartbeatUnlimitedBlobsOverflow pins WHY the cap exists: with
// MaxBlobs < 0 (unlimited) the same oversized set must fail registration
// at the frame layer.
func TestAgentHeartbeatUnlimitedBlobsOverflow(t *testing.T) {
	r := NewRegistry(RegistryOptions{TTL: 10 * time.Second})
	addr, stop := startWireRegistry(t, r)
	defer stop()

	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d-%s", i, strings.Repeat("k", 190))
	}
	_, err := StartAgent(AgentConfig{
		Client:   NewRegistryClient(addr, ClientOptions{}),
		Addr:     "edge-big:9000",
		Capacity: 2,
		TTL:      10 * time.Second,
		MaxBlobs: -1,
		Blobs:    func() []string { return keys },
	})
	if err == nil {
		t.Fatal("unlimited 4MiB blob advertisement registered; expected a frame-size failure")
	}
}

var _ = protocol.MaxHeaderLen // the overflow test exercises this bound
