package fleet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"websnap/internal/protocol"
)

// DefaultClientTimeout bounds one registry round trip (dial + request +
// response).
const DefaultClientTimeout = 2 * time.Second

// ClientOptions configures a RegistryClient.
type ClientOptions struct {
	// Timeout bounds each registry round trip (DefaultClientTimeout when
	// zero).
	Timeout time.Duration
	// Dial overrides the transport (tests inject in-memory pipes or
	// chaos-wrapped dialers). nil means net.DialTimeout("tcp", ...).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// RegistryClient talks to a registry over single-shot framed connections
// and keeps the last successfully fetched view. When the registry is
// unreachable, placement degrades to that last-known-good view instead of
// failing — a fleet with a dead registry keeps serving, it just stops
// learning about membership changes.
type RegistryClient struct {
	addr    string
	timeout time.Duration
	dial    func(addr string, timeout time.Duration) (net.Conn, error)

	mu       sync.Mutex
	cached   *protocol.FleetViewHeader
	cachedAt time.Time
}

// NewRegistryClient builds a client for the registry at addr.
func NewRegistryClient(addr string, opts ClientOptions) *RegistryClient {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultClientTimeout
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return &RegistryClient{addr: addr, timeout: timeout, dial: dial}
}

// Addr returns the registry address this client targets.
func (c *RegistryClient) Addr() string { return c.addr }

// call runs one registry RPC on a fresh connection: hdr goes out as a
// frame of type t, and the answer, which must have type want, is decoded
// into out.
func (c *RegistryClient) call(t protocol.MsgType, hdr any, want protocol.MsgType, out any) error {
	req, err := protocol.Encode(t, hdr, nil)
	if err != nil {
		return err
	}
	conn, err := c.dial(c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("fleet: dial registry %s: %w", c.addr, err)
	}
	defer conn.Close()
	if _, err := protocol.Call(conn, c.timeout, req, want, out); err != nil {
		return fmt.Errorf("fleet: registry %s: %w", c.addr, err)
	}
	return nil
}

// Register sends one registration/heartbeat.
func (c *RegistryClient) Register(hdr protocol.FleetRegisterHeader) (protocol.FleetRegisteredHeader, error) {
	var out protocol.FleetRegisteredHeader
	err := c.call(protocol.MsgFleetRegister, hdr, protocol.MsgFleetRegistered, &out)
	return out, err
}

// FetchView fetches the current fleet view and caches it on success.
func (c *RegistryClient) FetchView() (protocol.FleetViewHeader, error) {
	var view protocol.FleetViewHeader
	if err := c.call(protocol.MsgFleetList, protocol.FleetListHeader{}, protocol.MsgFleetView, &view); err != nil {
		return protocol.FleetViewHeader{}, err
	}
	c.mu.Lock()
	c.cached = &view
	c.cachedAt = time.Now()
	c.mu.Unlock()
	return view, nil
}

// View fetches the fleet view, degrading to the last-known-good cached
// view when the registry is unreachable. cached reports whether the result
// is the degraded copy; err is non-nil only when there is no cache to fall
// back on.
func (c *RegistryClient) View() (view protocol.FleetViewHeader, cached bool, err error) {
	view, err = c.FetchView()
	if err == nil {
		return view, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cached == nil {
		return protocol.FleetViewHeader{}, false, err
	}
	return *c.cached, true, nil
}

// Locate asks the registry which servers hold each blob key.
func (c *RegistryClient) Locate(keys []string) (map[string][]string, error) {
	holders, _, err := c.LocateTraced(keys, "")
	return holders, err
}

// LocateTraced is Locate with cross-process trace propagation: traceID is
// stamped on the request and the registry's span for the hop comes back
// alongside the holders. An empty traceID sends an untraced request.
func (c *RegistryClient) LocateTraced(keys []string, traceID string) (map[string][]string, *protocol.SpanNode, error) {
	start := time.Now()
	var loc protocol.BlobLocationHeader
	err := c.call(protocol.MsgBlobLocate, protocol.BlobLocateHeader{Keys: keys, TraceID: traceID},
		protocol.MsgBlobLocation, &loc)
	if err != nil {
		return nil, nil, err
	}
	span := loc.Span
	if span != nil {
		// The registry measured only its own work; the caller's view of the
		// hop includes the round trip. Wrap so the tree keeps both.
		span = &protocol.SpanNode{
			Op:       "registry_rpc",
			Addr:     c.addr,
			Micros:   time.Since(start).Microseconds(),
			Children: []*protocol.SpanNode{loc.Span},
		}
	}
	return loc.Holders, span, nil
}
