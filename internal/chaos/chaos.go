// Package chaos is a seeded, deterministic fault-injection layer for the
// client↔edge transport. It wraps net.Conn / net.Listener (composing with
// netem's bandwidth shaping) and injects scripted or randomized faults:
// mid-frame connection resets, byte corruption, read/write stalls,
// truncation, duplicated delivery, listener-level connection refusal, and
// time-varying bandwidth/latency schedules.
//
// Determinism contract: an Injector is created from a single int64 seed.
// Every connection it wraps receives a Plan derived from (seed, connection
// index) through its own rand source, so the k-th wrapped connection's
// fault schedule is a pure function of the seed — independent of timing,
// goroutine interleaving, or how many random draws earlier plans consumed.
// Faults trigger at cumulative byte offsets in each direction's stream
// (not at call counts), so the schedule is also independent of how the
// peer chunks its reads and writes. A failing soak run therefore replays
// from its seed alone.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"websnap/internal/netem"
)

// ErrInjected marks every connection failure the chaos layer fabricates,
// so tests can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Direction selects which half of the wrapped stream a fault applies to,
// from the wrapping side's point of view.
type Direction uint8

// Directions.
const (
	DirWrite Direction = iota
	DirRead
)

func (d Direction) String() string {
	if d == DirWrite {
		return "write"
	}
	return "read"
}

// FaultKind identifies one injected misbehavior.
type FaultKind uint8

// Fault kinds.
const (
	// FaultReset severs the connection once Offset bytes have passed in
	// the fault's direction: bytes before the offset are delivered, the
	// rest of the call fails and the underlying conn is closed.
	FaultReset FaultKind = iota + 1
	// FaultCorrupt XORs Mask into the byte at Offset.
	FaultCorrupt
	// FaultStall sleeps Delay before moving the byte at Offset.
	FaultStall
	// FaultTruncate silently drops everything from Offset on — the write
	// reports success — then closes the conn: the peer sees a frame that
	// stops mid-stream.
	FaultTruncate
	// FaultDuplicate re-delivers the Dup bytes preceding Offset (write
	// direction only), modeling duplicated segment delivery.
	FaultDuplicate
	// FaultOutage models a service-level outage: a FlapListener drops every
	// connection accepted while its schedule says the service is down — the
	// dialer sees a successful connect followed by an immediate close, which
	// is how a crashed or partitioned registry looks from outside. It is
	// never drawn by GenPlan (randomized per-connection schedules keep their
	// seed-stable draw); soaks install it deliberately at the listener.
	FaultOutage
)

func (k FaultKind) String() string {
	switch k {
	case FaultReset:
		return "reset"
	case FaultCorrupt:
		return "corrupt"
	case FaultStall:
		return "stall"
	case FaultTruncate:
		return "truncate"
	case FaultDuplicate:
		return "duplicate"
	case FaultOutage:
		return "outage"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(k))
	}
}

// Fault is one scheduled misbehavior, pinned to a cumulative byte offset
// in one direction of the stream.
type Fault struct {
	Kind   FaultKind
	Dir    Direction
	Offset int64
	// Mask is the corruption XOR mask (FaultCorrupt; never zero).
	Mask byte
	// Delay is the stall duration (FaultStall).
	Delay time.Duration
	// Dup is how many preceding bytes to re-deliver (FaultDuplicate).
	Dup int
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s@%s:%d", f.Kind, f.Dir, f.Offset)
	switch f.Kind {
	case FaultCorrupt:
		s += fmt.Sprintf("^%#02x", f.Mask)
	case FaultStall:
		s += fmt.Sprintf("+%v", f.Delay)
	case FaultDuplicate:
		s += fmt.Sprintf("x%d", f.Dup)
	}
	return s
}

// Phase is one leg of a time-varying link schedule: Profile shapes writes
// from cumulative write offset Offset onward, until the next phase.
type Phase struct {
	Offset  int64
	Profile netem.Profile
}

// Plan is one connection's complete fault schedule. The zero Plan injects
// nothing.
type Plan struct {
	// Conn is the plan's connection index within its Injector (assignment
	// order for WrapConn, accept order for wrapped listeners).
	Conn int
	// Refuse makes a wrapped listener close the connection immediately
	// after accepting it; WrapConn treats it as a reset at write offset 0.
	Refuse bool
	// AcceptDelay stalls the listener before handing the connection out.
	AcceptDelay time.Duration
	// Faults is the schedule, sorted by (direction, offset).
	Faults []Fault
	// Phases is the time-varying bandwidth/latency schedule for the write
	// direction; empty means no shaping.
	Phases []Phase
}

// String renders the plan compactly for failure messages, e.g.
// "conn2[refuse]" or "conn0{corrupt@write:117^0x40 stall@read:2048+5ms}".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conn%d", p.Conn)
	if p.Refuse {
		b.WriteString("[refuse]")
	}
	if p.AcceptDelay > 0 {
		fmt.Fprintf(&b, "[accept+%v]", p.AcceptDelay)
	}
	if len(p.Faults) > 0 {
		b.WriteByte('{')
		for i, f := range p.Faults {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(f.String())
		}
		b.WriteByte('}')
	}
	for _, ph := range p.Phases {
		fmt.Fprintf(&b, "(%d:%gbps+%v)", ph.Offset, ph.Profile.BandwidthBitsPerSec, ph.Profile.Latency)
	}
	return b.String()
}

// Options bounds randomized plan generation. The zero value selects usable
// defaults for soak tests against framed snapshot traffic.
type Options struct {
	// FaultProb is the probability a connection gets any faults at all;
	// the rest pass traffic through untouched (beyond shaping). Negative
	// disables faults entirely. Zero selects 0.7.
	FaultProb float64
	// MaxFaults caps the faults per connection. Zero selects 3.
	MaxFaults int
	// MaxOffset bounds fault byte offsets. Offsets are drawn log-uniformly
	// in [0, MaxOffset) so early (frame-header) and late (mid-body) faults
	// both occur. Zero selects 64 KiB.
	MaxOffset int64
	// MaxDelay bounds stall and accept delays. Zero selects 20ms.
	MaxDelay time.Duration
	// RefuseProb is the probability of listener-level refusal. Negative
	// disables it. Zero selects 0.05.
	RefuseProb float64
	// ShapeProb is the probability of a time-varying bandwidth schedule.
	// Negative disables shaping. Zero selects 0.25.
	ShapeProb float64
	// MinBandwidth is the slowest phase bandwidth in bits/s. Zero selects
	// 8e6 (1 MB/s) so shaped soak sessions stay fast.
	MinBandwidth float64
}

func (o Options) withDefaults() Options {
	if o.FaultProb == 0 {
		o.FaultProb = 0.7
	}
	if o.MaxFaults <= 0 {
		o.MaxFaults = 3
	}
	if o.MaxOffset <= 0 {
		o.MaxOffset = 64 << 10
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 20 * time.Millisecond
	}
	if o.RefuseProb == 0 {
		o.RefuseProb = 0.05
	}
	if o.ShapeProb == 0 {
		o.ShapeProb = 0.25
	}
	if o.MinBandwidth <= 0 {
		o.MinBandwidth = 8e6
	}
	return o
}

// GenPlan draws one randomized plan from rng under the given bounds. It is
// exposed so tests can pin schedules without an Injector.
func GenPlan(rng *rand.Rand, conn int, opts Options) Plan {
	opts = opts.withDefaults()
	p := Plan{Conn: conn}
	if opts.RefuseProb > 0 && rng.Float64() < opts.RefuseProb {
		p.Refuse = true
		return p
	}
	if opts.ShapeProb > 0 && rng.Float64() < opts.ShapeProb {
		n := 1 + rng.Intn(3)
		off := int64(0)
		for i := 0; i < n; i++ {
			// Log-uniform bandwidth across two decades above the floor.
			bw := opts.MinBandwidth * math.Pow(10, rng.Float64()*2)
			p.Phases = append(p.Phases, Phase{
				Offset: off,
				Profile: netem.Profile{
					BandwidthBitsPerSec: bw,
					Latency:             time.Duration(rng.Int63n(int64(2 * time.Millisecond))),
				},
			})
			off += 1 + rng.Int63n(opts.MaxOffset)
		}
	}
	if opts.FaultProb > 0 && rng.Float64() < opts.FaultProb {
		n := 1 + rng.Intn(opts.MaxFaults)
		for i := 0; i < n; i++ {
			f := Fault{
				Kind:   FaultKind(1 + rng.Intn(5)),
				Dir:    Direction(rng.Intn(2)),
				Offset: logUniform(rng, opts.MaxOffset),
			}
			switch f.Kind {
			case FaultCorrupt:
				f.Mask = byte(1 + rng.Intn(255))
			case FaultStall:
				f.Delay = time.Duration(1 + rng.Int63n(int64(opts.MaxDelay)))
			case FaultDuplicate:
				// Duplication re-plays already-sent bytes; read-side
				// duplication would require peer cooperation, so pin it
				// to the write direction.
				f.Dir = DirWrite
				f.Dup = 1 + rng.Intn(4096)
			}
			p.Faults = append(p.Faults, f)
		}
		sortFaults(p.Faults)
	}
	return p
}

// logUniform draws an offset in [0, max) favoring small values, so faults
// land in frame headers about as often as deep inside bodies.
func logUniform(rng *rand.Rand, max int64) int64 {
	if max <= 1 {
		return 0
	}
	bits := 1
	for int64(1)<<bits < max {
		bits++
	}
	v := rng.Int63n(int64(1) << (1 + rng.Intn(bits)))
	if v >= max {
		v = max - 1
	}
	return v
}

func sortFaults(fs []Fault) {
	// Insertion sort: fault lists are tiny and this avoids importing sort
	// for an interface allocation on the soak's hot setup path.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && less(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func less(a, b Fault) bool {
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	return a.Offset < b.Offset
}

// Injector derives per-connection fault plans from one seed.
type Injector struct {
	opts Options
	seed int64

	mu    sync.Mutex
	next  int
	plans []Plan
}

// New creates an injector. Identical (seed, opts) yield identical plan
// sequences.
func New(seed int64, opts Options) *Injector {
	return &Injector{opts: opts.withDefaults(), seed: seed}
}

// Seed returns the injector's seed, for failure messages.
func (in *Injector) Seed() int64 { return in.seed }

// nextPlan derives the plan for the next connection index. Each plan uses
// its own rand source seeded from (seed, index), so plan k never depends
// on how much randomness plans 0..k-1 consumed.
func (in *Injector) nextPlan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := in.next
	in.next++
	rng := rand.New(rand.NewSource(connSeed(in.seed, idx)))
	p := GenPlan(rng, idx, in.opts)
	in.plans = append(in.plans, p)
	return p
}

// connSeed mixes the master seed with a connection index (splitmix64-style)
// so adjacent indices get uncorrelated streams.
func connSeed(seed int64, idx int) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Plans returns a copy of every plan handed out so far, in connection
// order — the injector's complete fault schedule, for replay comparison.
func (in *Injector) Plans() []Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Plan(nil), in.plans...)
}

// WrapConn wraps c with the next connection plan. A Refuse plan becomes an
// immediate write-direction reset.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	p := in.nextPlan()
	if p.Refuse {
		p.Faults = []Fault{{Kind: FaultReset, Dir: DirWrite, Offset: 0}}
		p.Refuse = false
	}
	return NewConn(c, p)
}

// WrapListener wraps ln so every accepted connection is wrapped with the
// next connection plan. Refuse plans close the connection right after
// accept — the client sees a successful dial followed by EOF — and the
// listener moves on to the next connection.
func (in *Injector) WrapListener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: in}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		p := l.inj.nextPlan()
		if p.AcceptDelay > 0 {
			time.Sleep(p.AcceptDelay)
		}
		if p.Refuse {
			c.Close()
			continue
		}
		return NewConn(c, p), nil
	}
}

// FlapListener wraps a listener with a deterministic outage schedule —
// the registry-outage/flap fault. Connections accepted while Down reports
// true are closed immediately (recorded as FaultOutage drops); the rest
// pass through untouched. The schedule is defined over accept indices
// rather than wall time, so a soak's outage windows replay exactly
// regardless of machine speed: flapping is "down for the next k dials",
// not "down for the next k milliseconds".
type FlapListener struct {
	net.Listener
	down func(accept int) bool

	mu    sync.Mutex
	next  int
	drops []Fault
}

// NewFlapListener wraps ln; down decides per accept index (0-based,
// counting every inbound connection) whether the service is in an outage
// window. A nil down never flaps.
func NewFlapListener(ln net.Listener, down func(accept int) bool) *FlapListener {
	return &FlapListener{Listener: ln, down: down}
}

// Accept returns the next connection accepted during an up window,
// silently dropping those that land in outage windows.
func (l *FlapListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		idx := l.next
		l.next++
		isDown := l.down != nil && l.down(idx)
		if isDown {
			l.drops = append(l.drops, Fault{Kind: FaultOutage, Dir: DirWrite, Offset: int64(idx)})
		}
		l.mu.Unlock()
		if isDown {
			c.Close()
			continue
		}
		return c, nil
	}
}

// Drops returns the outage schedule's refusals so far, one FaultOutage per
// dropped connection with Offset holding its accept index — for failure
// messages and for asserting the soak actually exercised the outage.
func (l *FlapListener) Drops() []Fault {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Fault(nil), l.drops...)
}

// Accepts returns how many connections have arrived, dropped or not.
func (l *FlapListener) Accepts() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Conn applies one Plan to a wrapped net.Conn. Faults trigger at
// cumulative byte offsets per direction; write phases pace like netem.
// Reads and writes each take their own lock, matching net.Conn's
// concurrency contract (one reader plus one writer).
type Conn struct {
	inner net.Conn
	plan  Plan

	wmu      sync.Mutex
	wOff     int64
	wFaults  []Fault
	phase    int
	nextFree time.Time

	rmu     sync.Mutex
	rOff    int64
	rFaults []Fault
	// rErr is the injected error to report once a read-direction reset has
	// delivered its clean prefix.
	rErr error
}

var _ net.Conn = (*Conn)(nil)

// NewConn wraps c with a scripted plan. Faults need not be sorted.
func NewConn(c net.Conn, p Plan) *Conn {
	fs := append([]Fault(nil), p.Faults...)
	sortFaults(fs)
	cc := &Conn{inner: c, plan: p}
	for _, f := range fs {
		if f.Dir == DirWrite {
			cc.wFaults = append(cc.wFaults, f)
		} else {
			cc.rFaults = append(cc.rFaults, f)
		}
	}
	return cc
}

// Plan returns the connection's fault schedule.
func (c *Conn) Plan() Plan { return c.plan }

// injectedErr builds the error for a fired terminal fault.
func injectedErr(f Fault) error {
	return fmt.Errorf("%w: %s", ErrInjected, f)
}

// Write delivers b through the fault schedule: stalls sleep, corruption
// flips bytes, duplication re-sends recent bytes, truncation silently
// swallows the tail then severs the conn, resets sever it mid-buffer.
// Shaping phases pace the delivered bytes.
func (c *Conn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	for written < len(b) {
		chunk := b[written:]
		// The next scheduled fault inside this chunk bounds how much is
		// delivered untouched before the fault fires.
		var fault *Fault
		if len(c.wFaults) > 0 {
			f := c.wFaults[0]
			rel := f.Offset - c.wOff
			if rel < int64(len(chunk)) {
				fault = &f
				chunk = chunk[:rel]
			}
		}
		if len(chunk) > 0 {
			if err := c.pace(len(chunk)); err != nil {
				return written, err
			}
			n, err := c.inner.Write(chunk)
			c.wOff += int64(n)
			written += n
			if err != nil {
				return written, err
			}
			continue // re-evaluate faults at the new offset
		}
		// A fault fires exactly at the current offset.
		c.wFaults = c.wFaults[1:]
		switch fault.Kind {
		case FaultStall:
			time.Sleep(fault.Delay)
		case FaultCorrupt:
			corrupted := []byte{b[written] ^ fault.Mask}
			if err := c.pace(1); err != nil {
				return written, err
			}
			if _, err := c.inner.Write(corrupted); err != nil {
				return written, err
			}
			c.wOff++
			written++
		case FaultDuplicate:
			dup := int64(fault.Dup)
			if dup > c.wOff {
				dup = c.wOff
			}
			// Re-deliver the most recent bytes of this buffer; bytes from
			// earlier buffers are gone, so duplication is capped at what
			// this call has already delivered.
			if avail := int64(written); dup > avail {
				dup = avail
			}
			if dup > 0 {
				if _, err := c.inner.Write(b[written-int(dup) : written]); err != nil {
					return written, err
				}
			}
		case FaultTruncate:
			c.inner.Close()
			c.wFaults = nil
			// Report success: the caller believes the frame went out.
			return len(b), nil
		case FaultReset:
			c.inner.Close()
			c.wFaults = nil
			return written, injectedErr(*fault)
		}
	}
	return written, nil
}

// pace sleeps so cumulative writes respect the current shaping phase,
// booked on the link's virtual clock as netem.Conn books them.
func (c *Conn) pace(n int) error {
	if len(c.plan.Phases) == 0 {
		return nil
	}
	for c.phase+1 < len(c.plan.Phases) && c.wOff >= c.plan.Phases[c.phase+1].Offset {
		c.phase++
	}
	if wait := c.plan.Phases[c.phase].Profile.Pace(&c.nextFree, n, time.Now()); wait > 0 {
		time.Sleep(wait)
	}
	return nil
}

// Read pulls from the inner conn, then applies read-direction faults to
// the received bytes: corruption flips them, stalls sleep before
// delivery, resets discard from the fault offset and sever the conn.
func (c *Conn) Read(b []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.rErr != nil {
		return 0, c.rErr
	}
	if len(c.rFaults) > 0 && c.rFaults[0].Offset == c.rOff {
		// Offset-0-of-the-fault cases that must fire before blocking on a
		// read: a reset exactly at the current offset should not wait for
		// the peer to send more first.
		f := c.rFaults[0]
		if f.Kind == FaultReset {
			c.rFaults = c.rFaults[1:]
			c.inner.Close()
			return 0, injectedErr(f)
		}
	}
	n, err := c.inner.Read(b)
	if n == 0 {
		return n, err
	}
	end := c.rOff + int64(n)
	delivered := n
	for len(c.rFaults) > 0 {
		f := c.rFaults[0]
		if f.Offset >= end {
			break
		}
		rel := int(f.Offset - c.rOff)
		c.rFaults = c.rFaults[1:]
		switch f.Kind {
		case FaultCorrupt:
			b[rel] ^= f.Mask
		case FaultStall:
			time.Sleep(f.Delay)
		case FaultReset, FaultTruncate:
			c.inner.Close()
			c.rFaults = nil
			c.rErr = injectedErr(f)
			if rel > 0 {
				// Deliver the clean prefix; the next Read errors out.
				c.rOff += int64(rel)
				return rel, nil
			}
			return 0, c.rErr
		}
	}
	c.rOff = end
	return delivered, err
}

// Close closes the wrapped connection.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr returns the wrapped connection's local address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr returns the wrapped connection's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline forwards to the wrapped connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the wrapped connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the wrapped connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
