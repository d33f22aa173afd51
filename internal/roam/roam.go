// Package roam manages edge-server selection for a mobile client — the
// paper's §I mobility scenario: "when we need to change the edge server
// during app execution (e.g., when a mobile client moves to a different
// service area), snapshot-based offloading can readily work on a new edge
// server since it has no dependence on the previous server."
//
// A Roamer probes a set of candidate edge servers, connects to the best
// one, and re-targets the app's offloader when the current server becomes
// unreachable or a sufficiently faster candidate appears. Because the
// snapshot mechanism is server-stateless (every request is a full snapshot;
// models re-pre-send), switching requires no migration protocol at all.
package roam

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"websnap/internal/client"
	"websnap/internal/obs"
	"websnap/internal/protocol"
	"websnap/internal/telemetry"
	"websnap/internal/trace"
)

const (
	// hintStaleness bounds how long a probe keeps counting toward a
	// server's score and saturation state. A selection made long after the
	// last probe falls back to RTT alone instead of trusting a queue report
	// from a server whose load has long since changed.
	hintStaleness = 10 * time.Second
	// switchMargin is the relative score advantage a candidate needs before
	// the roamer abandons a healthy current server (0.3 = 30% faster):
	// hysteresis against flapping between near-equal servers.
	switchMargin = 0.3
)

// Errors reported by the roamer.
var (
	ErrNoServers   = errors.New("roam: no candidate servers")
	ErrNoReachable = errors.New("roam: no reachable edge server")
)

// ServerInfo is the probe state of one candidate edge server.
type ServerInfo struct {
	Addr string
	// RTT is the last measured probe round-trip time.
	RTT time.Duration
	// Load is the server's scheduling load from the last ping probe; nil
	// when the ping failed (selection then falls back to RTT alone).
	Load *protocol.LoadHint
	// Score is the effective cost used for selection: RTT plus the
	// server's estimated queueing delay. A nearby but overloaded server
	// scores worse than a slightly farther idle one.
	Score time.Duration
	// Healthy reports whether the last probe succeeded.
	Healthy bool
	// LastProbe is when the server was last probed.
	LastProbe time.Time
}

// Saturated reports whether the server advertised a full admission queue.
func (i ServerInfo) Saturated() bool {
	return i.Load != nil && i.Load.Saturated
}

// better orders candidates for selection: non-saturated before saturated,
// then by score.
func (i ServerInfo) better(j ServerInfo) bool {
	if i.Saturated() != j.Saturated() {
		return !i.Saturated()
	}
	return i.Score < j.Score
}

// Config parametrizes a Roamer.
type Config struct {
	// Servers lists candidate edge server addresses. May be empty when
	// FleetView supplies membership dynamically.
	Servers []string
	// FleetView, when non-nil, supplies the candidate set dynamically —
	// typically a fleet registry view ranked by a placement policy (see
	// fleet.PlacementView). It returns candidate addresses in placement-
	// preference order plus a source tag: "registry" for a live view,
	// "registry-cached" when the client serves its last-known-good cached
	// view during a registry outage. The roamer refreshes membership at
	// the start of every probe round; a FleetView error keeps the previous
	// membership and records source "last-known-good". The source tag is
	// attached to switch audit logs so degraded placement is visible in
	// the decision record.
	FleetView func() (addrs []string, source string, err error)
	// Probe measures one server's reachability, latency, and scheduling
	// load; a nil load scores the server by RTT alone. Nil selects
	// PingProbe.
	Probe func(addr string) (time.Duration, *protocol.LoadHint, error)
	// Dial opens an offloading connection. Nil selects client.Dial.
	Dial func(addr string) (*client.Conn, error)
	// Now is the clock; nil selects time.Now.
	Now func() time.Time
	// Logger, when non-nil, records server-switch decisions as structured
	// JSON lines (old/new server, switch count) — the mobility analogue
	// of the offload decision audit.
	Logger *obs.Logger
	// Flight, when non-nil, records each completed server switch in the
	// flight recorder, so /debug/flight interleaves handoffs with the
	// slow/failed requests they may explain.
	Flight *telemetry.FlightRecorder
}

// Roamer tracks candidate edge servers and the current connection.
type Roamer struct {
	cfg Config

	// rec records successful probe round trips into the probe-stage
	// histogram, so roaming overhead shows up in the same latency export
	// as the offload pipeline.
	rec *trace.Recorder

	mu          sync.Mutex
	servers     map[string]*ServerInfo
	order       []string
	currentAddr string
	currentConn *client.Conn
	switches    int
	// viewSource records where the current membership came from ("" for a
	// static server list; "registry", "registry-cached", or
	// "last-known-good" under a FleetView).
	viewSource string
}

// TraceRecorder exposes the roamer's probe-latency histograms.
func (r *Roamer) TraceRecorder() *trace.Recorder { return r.rec }

// New creates a roamer over the configured candidate servers.
func New(cfg Config) (*Roamer, error) {
	if len(cfg.Servers) == 0 && cfg.FleetView == nil {
		return nil, ErrNoServers
	}
	if cfg.Probe == nil {
		cfg.Probe = PingProbe
	}
	if cfg.Dial == nil {
		cfg.Dial = client.Dial
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Roamer{
		cfg:     cfg,
		servers: make(map[string]*ServerInfo, len(cfg.Servers)),
		rec:     trace.NewRecorder(),
	}
	for _, addr := range cfg.Servers {
		if addr == "" {
			return nil, errors.New("roam: empty server address")
		}
		if _, dup := r.servers[addr]; dup {
			return nil, fmt.Errorf("roam: duplicate server %q", addr)
		}
		r.servers[addr] = &ServerInfo{Addr: addr}
		r.order = append(r.order, addr)
	}
	return r, nil
}

// PingProbe measures a TCP connect round trip, then pings the server for
// its scheduling load. A server that accepts the connection but fails the
// ping is scored by connect RTT alone — it is still a valid roaming target.
func PingProbe(addr string) (time.Duration, *protocol.LoadHint, error) {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return 0, nil, err
	}
	rtt := time.Since(start)
	c := client.NewConn(conn)
	defer c.Close()
	c.SetRequestTimeout(2 * time.Second)
	if _, load, err := c.Ping(); err == nil {
		return rtt, load, nil
	}
	return rtt, nil, nil
}

// refreshMembership pulls the candidate set from the fleet view, keeping
// probe state for servers that persist across refreshes. A view error
// keeps the previous membership (degrade to last-known-good) rather than
// stranding the roamer: a dead registry must not take down clients that
// already know where the fleet is.
func (r *Roamer) refreshMembership() {
	if r.cfg.FleetView == nil {
		return
	}
	addrs, source, err := r.cfg.FleetView()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.viewSource = "last-known-good"
		r.cfg.Logger.Warn("roam: fleet view unavailable, keeping last-known-good membership",
			obs.F("error", err.Error()), obs.F("servers", len(r.order)))
		return
	}
	r.viewSource = source
	seen := make(map[string]bool, len(addrs))
	order := make([]string, 0, len(addrs)+1)
	servers := make(map[string]*ServerInfo, len(addrs)+1)
	added := 0
	for _, addr := range addrs {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		if info, ok := r.servers[addr]; ok {
			servers[addr] = info
		} else {
			servers[addr] = &ServerInfo{Addr: addr}
			added++
		}
		order = append(order, addr)
	}
	// The current server stays a candidate even when the view drops it:
	// selection quality, not membership churn, decides when to abandon a
	// live connection.
	if r.currentAddr != "" && !seen[r.currentAddr] {
		if info, ok := r.servers[r.currentAddr]; ok {
			servers[r.currentAddr] = info
			order = append(order, r.currentAddr)
		}
	}
	removed := 0
	for addr := range r.servers {
		if _, ok := servers[addr]; !ok {
			removed++
		}
	}
	if added > 0 || removed > 0 {
		r.cfg.Logger.Info("roam: fleet membership changed",
			obs.F("added", added), obs.F("removed", removed),
			obs.F("servers", len(order)), obs.F("view", source))
	}
	r.order, r.servers = order, servers
}

// ViewSource reports where the current candidate membership came from: ""
// for a static server list; "registry", "registry-cached", or
// "last-known-good" when a FleetView feeds the roamer.
func (r *Roamer) ViewSource() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewSource
}

// ProbeAll refreshes fleet membership, probes every candidate, and returns
// their states sorted by (healthy first, then RTT).
func (r *Roamer) ProbeAll() []ServerInfo {
	r.refreshMembership()
	r.mu.Lock()
	addrs := append([]string(nil), r.order...)
	r.mu.Unlock()
	type result struct {
		addr string
		rtt  time.Duration
		load *protocol.LoadHint
		err  error
	}
	results := make([]result, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			rtt, load, err := r.cfg.Probe(addr)
			results[i] = result{addr: addr, rtt: rtt, load: load, err: err}
		}(i, addr)
	}
	wg.Wait()
	for _, res := range results {
		if res.err == nil {
			r.rec.Observe(trace.StageProbe, res.rtt)
		}
	}
	r.mu.Lock()
	now := r.cfg.Now()
	for _, res := range results {
		info := r.servers[res.addr]
		if info == nil {
			// A concurrent membership refresh dropped this server while it
			// was being probed.
			continue
		}
		info.LastProbe = now
		info.Healthy = res.err == nil
		if res.err == nil {
			info.RTT = res.rtt
			info.Load = res.load
			info.Score = res.rtt
			if res.load != nil {
				info.Score += res.load.QueueingDelay()
			}
		}
	}
	out := make([]ServerInfo, 0, len(r.order))
	for _, addr := range r.order {
		out = append(out, *r.servers[addr])
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Healthy != out[j].Healthy {
			return out[i].Healthy
		}
		return out[i].better(out[j])
	})
	return out
}

// stale reports whether the server's last probe predates the staleness
// window: everything it told us (RTT, queue depth, saturation) describes a
// state that may no longer exist.
func (r *Roamer) stale(info *ServerInfo, now time.Time) bool {
	return now.Sub(info.LastProbe) > hintStaleness
}

// freshView returns info with a stale load hint stripped: once the hint is
// older than the staleness window, the score falls back to RTT alone and
// the saturation flag no longer repels selection — the queue that hint
// described has long since drained or grown.
func (r *Roamer) freshView(info ServerInfo, now time.Time) ServerInfo {
	if info.Load != nil && r.stale(&info, now) {
		info.Load = nil
		info.Score = info.RTT
	}
	return info
}

// Best returns the healthiest candidate with the lowest effective cost
// (RTT plus advertised queueing delay) from the most recent probes; lightly
// loaded servers beat equally near saturated ones.
//
// Servers whose last probe is older than the staleness window are excluded
// outright while any freshly probed server remains: a stale probe is a
// measurement of a server state that no longer exists, and letting it
// compete on its old RTT shadows live measurements (historically it kept
// its RTT score after losing only its load hint, so a long-unprobed server
// could outrank a just-probed one). Only when every healthy server is
// stale does selection degrade to last-known-good, scored by RTT alone.
func (r *Roamer) Best() (ServerInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Now()
	var best, lastKnown ServerInfo
	found, foundStale := false, false
	for _, addr := range r.order {
		info := r.servers[addr]
		if !info.Healthy {
			continue
		}
		if r.stale(info, now) {
			v := r.freshView(*info, now)
			if !foundStale || v.better(lastKnown) {
				lastKnown, foundStale = v, true
			}
			continue
		}
		if !found || info.better(best) {
			best, found = *info, true
		}
	}
	if found {
		return best, nil
	}
	if foundStale {
		return lastKnown, nil
	}
	return ServerInfo{}, ErrNoReachable
}

// Current returns the current server address and connection ("" and nil
// before the first Connect).
func (r *Roamer) Current() (string, *client.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.currentAddr, r.currentConn
}

// Switches counts completed server changes (the first Connect included).
func (r *Roamer) Switches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.switches
}

// Connect probes all candidates and connects to the best one.
func (r *Roamer) Connect() (*client.Conn, error) {
	r.ProbeAll()
	best, err := r.Best()
	if err != nil {
		return nil, err
	}
	return r.SwitchTo(best.Addr)
}

// SwitchTo connects to the named server, closing the previous connection.
func (r *Roamer) SwitchTo(addr string) (*client.Conn, error) {
	r.mu.Lock()
	if _, known := r.servers[addr]; !known {
		r.mu.Unlock()
		return nil, fmt.Errorf("roam: unknown server %q", addr)
	}
	r.mu.Unlock()
	conn, err := r.cfg.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("roam: dial %s: %w", addr, err)
	}
	r.mu.Lock()
	old := r.currentConn
	oldAddr := r.currentAddr
	r.currentConn = conn
	r.currentAddr = addr
	r.switches++
	switches := r.switches
	viewSource := r.viewSource
	r.mu.Unlock()
	if old != nil {
		old.Close()
	}
	fields := []obs.Field{obs.F("from", oldAddr), obs.F("to", addr), obs.F("switches", switches)}
	if viewSource != "" {
		// Audit where the membership behind this switch came from, so a
		// placement decision made on a degraded (cached or last-known-good)
		// view is distinguishable from one made on live registry data.
		fields = append(fields, obs.F("view", viewSource))
	}
	r.cfg.Logger.Info("roam: switched edge server", fields...)
	if r.cfg.Flight != nil {
		note := fmt.Sprintf("switch %d: %s -> %s", switches, oldAddr, addr)
		if viewSource != "" {
			note += " (view " + viewSource + ")"
		}
		r.cfg.Flight.Record(telemetry.FlightEntry{
			Reason: telemetry.FlightSwitch,
			Note:   note,
		})
	}
	return conn, nil
}

// Evaluate re-probes and decides whether to switch: it switches when the
// current server is unhealthy, or when a candidate beats it by more than
// switchMargin. It returns the new connection (nil if no switch
// happened) and whether a switch occurred.
func (r *Roamer) Evaluate() (*client.Conn, bool, error) {
	r.ProbeAll()
	best, err := r.Best()
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	curAddr := r.currentAddr
	var cur *ServerInfo
	var curView ServerInfo
	if curAddr != "" {
		cur = r.servers[curAddr]
		if cur != nil {
			curView = r.freshView(*cur, r.cfg.Now())
		}
	}
	r.mu.Unlock()
	switch {
	case cur == nil, !cur.Healthy:
		// No current server or it died: take the best.
	case best.Addr == curAddr:
		return nil, false, nil
	case curView.Saturated() && !best.Saturated():
		// Current server is shedding load and an unsaturated candidate
		// exists: move immediately, regardless of margin.
	case float64(best.Score) < float64(curView.Score)*(1-switchMargin):
		// Candidate clearly better: switch.
	default:
		return nil, false, nil
	}
	conn, err := r.SwitchTo(best.Addr)
	if err != nil {
		return nil, false, err
	}
	return conn, true, nil
}

// Close closes the current connection, if any.
func (r *Roamer) Close() error {
	r.mu.Lock()
	conn := r.currentConn
	r.currentConn = nil
	r.currentAddr = ""
	r.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
