// Package netem emulates constrained network conditions, standing in for
// the paper's use of the Linux netem qdisc to limit bandwidth to 30 Mbps
// (Wi-Fi-like) between client and edge server (§IV).
//
// It provides both an analytic transfer-time model (used by the
// deterministic experiment simulator) and a real net.Conn wrapper that
// paces writes to the configured bandwidth (used by the runnable examples
// and the TCP integration tests).
package netem

import (
	"fmt"
	"net"
	"time"
)

// Profile describes a network condition.
type Profile struct {
	// BandwidthBitsPerSec is the link bandwidth in bits per second.
	BandwidthBitsPerSec float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
}

// WiFi30Mbps is the paper's emulated "good Wi-Fi" condition: 30 Mbit/s
// with LAN-like latency.
var WiFi30Mbps = Profile{BandwidthBitsPerSec: 30e6, Latency: 2 * time.Millisecond}

// Unlimited disables shaping (useful in tests).
var Unlimited = Profile{}

// TransferTime returns the analytic time to move n bytes across the link:
// one propagation delay plus serialization at the profile bandwidth. A zero
// bandwidth means unlimited.
func (p Profile) TransferTime(n int64) time.Duration {
	return p.Latency + p.serialization(n)
}

// serialization is how long n bytes take to leave at the profile
// bandwidth (zero when unlimited).
func (p Profile) serialization(n int64) time.Duration {
	if p.BandwidthBitsPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) * 8 / p.BandwidthBitsPerSec * float64(time.Second))
}

// Pace books an n-byte write at now on a link whose virtual clock says it
// is next idle at *nextFree, and returns how long the writer must wait
// for the link to carry it: an idle link first charges the propagation
// delay, then the bytes take n/bandwidth. Every paced writer (Conn, and
// chaos's shaping phases) books through it.
func (p Profile) Pace(nextFree *time.Time, n int, now time.Time) time.Duration {
	start := *nextFree
	if start.Before(now) {
		// Link idle: a fresh burst pays the propagation delay.
		start = now.Add(p.Latency)
	}
	*nextFree = start.Add(p.serialization(int64(n)))
	return nextFree.Sub(now)
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.BandwidthBitsPerSec < 0 {
		return fmt.Errorf("netem: negative bandwidth %f", p.BandwidthBitsPerSec)
	}
	if p.Latency < 0 {
		return fmt.Errorf("netem: negative latency %v", p.Latency)
	}
	return nil
}

// Conn wraps a net.Conn, pacing writes to the profile's bandwidth and
// charging the propagation delay on the first write of each burst. Reads
// pass through: shaping the sender side of each direction shapes the link.
type Conn struct {
	net.Conn
	profile Profile
	// nextFree is the virtual time at which the link is next idle.
	nextFree time.Time
	// returned is when the last Write returned.
	returned time.Time
	sleep    func(time.Duration)
	now      func() time.Time
}

var _ net.Conn = (*Conn)(nil)

// Shape wraps conn with bandwidth pacing. With an Unlimited profile the
// original conn is returned.
func Shape(conn net.Conn, p Profile) net.Conn {
	if p.BandwidthBitsPerSec <= 0 && p.Latency <= 0 {
		return conn
	}
	return &Conn{Conn: conn, profile: p, sleep: time.Sleep, now: time.Now}
}

// Write paces the write so the cumulative rate does not exceed the profile
// bandwidth, then forwards to the underlying conn. A write that comes
// straight back from the last one — within the propagation delay of its
// return — is booked as if it came when the link fell idle: a real socket
// would have queued its bytes, and what came late was this process waking
// from the last pacing sleep, so a body written in many pieces crosses the
// link in the time it takes written whole.
func (c *Conn) Write(b []byte) (int, error) {
	now := c.now()
	booked := now
	if now.Sub(c.returned) <= c.profile.Latency && c.nextFree.Before(now) {
		booked = c.nextFree
	}
	c.profile.Pace(&c.nextFree, len(b), booked)
	if wait := c.nextFree.Sub(now); wait > 0 {
		c.sleep(wait)
	}
	n, err := c.Conn.Write(b)
	c.returned = c.now()
	return n, err
}
