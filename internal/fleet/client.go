package fleet

import (
	"fmt"
	"net"
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

// RegistryClient talks to a registry over single-shot framed connections.
// It keeps no state between calls: a roamer rides out a registry outage on
// its own last-known-good membership (roam.Config.FleetView).
type RegistryClient struct {
	addr    string
	timeout time.Duration
	dial    func(addr string, timeout time.Duration) (net.Conn, error)
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

// Members fetches the live members' advertised addresses, in address
// order: the shape roam.Config.FleetView takes.
func (c *RegistryClient) Members() ([]string, error) {
	var view protocol.FleetViewHeader
	if err := c.call(protocol.MsgFleetList, protocol.FleetListHeader{}, protocol.MsgFleetView, &view); err != nil {
		return nil, err
	}
	addrs := make([]string, len(view.Servers))
	for i, s := range view.Servers {
		addrs[i] = s.Addr
	}
	return addrs, nil
}

// Locate asks the registry which servers hold each blob key. A non-empty
// traceID is stamped on the request, and the registry's span for the hop
// comes back alongside the holders.
func (c *RegistryClient) Locate(keys []string, traceID string) (map[string][]string, *protocol.SpanNode, error) {
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
			Op:       protocol.SpanRegistryRPC,
			Addr:     c.addr,
			Micros:   time.Since(start).Microseconds(),
			Children: []*protocol.SpanNode{loc.Span},
		}
	}
	return loc.Holders, span, nil
}
