package fleet

import (
	"cmp"
	"errors"
	"log/slog"
	"sync"
	"time"

	"websnap/internal/obs"
	"websnap/internal/protocol"
)

// AgentConfig configures a registration agent.
type AgentConfig struct {
	// Client talks to the registry.
	Client *RegistryClient
	// Addr is the server's advertised offload address (cmd/edged
	// -advertise), which peers and clients dial. It may differ from the
	// listen address behind NAT or a container port map.
	Addr string
	// Capacity is the server's worker-pool size.
	Capacity int
	// Interval is the heartbeat period. When zero the agent heartbeats at
	// a third of the TTL the registry grants in each acknowledgement, so
	// two consecutive losses still leave the registration live.
	Interval time.Duration
	// Load, when set, supplies the live load hint for each heartbeat.
	Load func() *protocol.LoadHint
	// Blobs, when set, supplies the content-addressed keys the server
	// currently holds (edge.Server.BlobKeys: its session store's keys,
	// most recently used first).
	Blobs func() []string
	// Stats, when set, supplies the telemetry digest piggybacked on each
	// heartbeat (see edge.Server.StatsDigest); the registry keeps the
	// latest digest per member for fleetd's rollup endpoints. Old
	// registries ignore the extra field.
	Stats func() *protocol.StatsDigest
	// MaxBlobs caps how many keys one heartbeat advertises (negative =
	// unlimited; zero = DefaultMaxAdvertisedBlobs). The register frame's
	// JSON header is bounded by protocol.MaxHeaderLen, so a server holding
	// an unbounded blob set must truncate or its registration fails and it
	// drops out of the fleet entirely. Suppliers aware of recency (see
	// edge.SessionStore.KeysMRU) should return the hot end first; the cap
	// keeps whatever prefix the supplier ordered.
	MaxBlobs int
	// Logger records heartbeat failures.
	Logger *slog.Logger
}

// Agent keeps an edge server registered: one registration up front, then a
// heartbeat loop until Close. Heartbeat failures are logged and retried on
// the next tick — a registry outage degrades the fleet view, it never
// takes the server down.
type Agent struct {
	cfg  AgentConfig
	quit chan struct{}
	done sync.WaitGroup
	once sync.Once
}

// StartAgent registers immediately and starts the heartbeat loop. The
// initial registration failing is an error (the operator pointed at a dead
// registry); later failures are not.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Client == nil {
		return nil, errors.New("fleet: agent without registry client")
	}
	if cfg.Addr == "" {
		return nil, errors.New("fleet: agent without advertised address")
	}
	cfg.Logger = cmp.Or(cfg.Logger, obs.Discard)
	a := &Agent{cfg: cfg, quit: make(chan struct{})}
	interval, err := a.heartbeat()
	if err != nil {
		return nil, err
	}
	a.done.Add(1)
	go a.run(interval)
	return a, nil
}

// heartbeat sends one registration and returns the period until the next:
// AgentConfig.Interval when set, else a third of the TTL the registry
// granted. The grant comes off the wire, so one that is not positive counts
// as DefaultTTL and one below MinTTL as MinTTL.
func (a *Agent) heartbeat() (time.Duration, error) {
	c := &a.cfg
	hdr := protocol.FleetRegisterHeader{Addr: c.Addr, Capacity: c.Capacity}
	if c.Load != nil {
		hdr.Load = c.Load()
	}
	if c.Blobs != nil {
		hdr.Blobs = c.Blobs()
		if max := a.maxBlobs(); max > 0 && len(hdr.Blobs) > max {
			hdr.Blobs = hdr.Blobs[:max]
		}
	}
	if c.Stats != nil {
		hdr.Stats = c.Stats()
	}
	ack, err := c.Client.Register(hdr)
	if c.Interval > 0 {
		return c.Interval, err
	}
	ttl := time.Duration(ack.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return max(ttl, MinTTL) / 3, err
}

// DefaultMaxAdvertisedBlobs is the default heartbeat advertisement cap.
// Content keys are 64-hex strings (~70 bytes JSON-encoded), so 4096 keys
// stay well under protocol.MaxHeaderLen (1 MiB) with room for the rest of
// the register header.
const DefaultMaxAdvertisedBlobs = 4096

// maxBlobs resolves the advertisement cap (0 = default, <0 = unlimited).
func (a *Agent) maxBlobs() int {
	switch {
	case a.cfg.MaxBlobs < 0:
		return 0
	case a.cfg.MaxBlobs == 0:
		return DefaultMaxAdvertisedBlobs
	default:
		return a.cfg.MaxBlobs
	}
}

// run heartbeats until Close, moving the ticker whenever the registry
// grants a different TTL.
func (a *Agent) run(interval time.Duration) {
	defer a.done.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.quit:
			return
		case <-ticker.C:
			next, err := a.heartbeat()
			if err != nil {
				a.cfg.Logger.Warn("fleet: heartbeat failed", obs.Err(err))
				continue
			}
			if next != interval {
				interval = next
				ticker.Reset(interval)
			}
		}
	}
}

// Close stops the heartbeat loop. The registration then lapses at its TTL.
func (a *Agent) Close() {
	a.once.Do(func() { close(a.quit) })
	a.done.Wait()
}
