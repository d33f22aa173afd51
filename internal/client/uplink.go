package client

import (
	"math"
	"time"
)

const (
	// packBelowBytesPerSec is the uplink rate under which a request body is
	// worth a codec pass at both ends. Packing P bytes of text to r·P costs
	// P/deflate at the client and P/inflate at the server and saves
	// (1−r)·P/B on a link of B bytes/s, so it pays while
	// B < (1−r) / (1/deflate + 1/inflate): with BestSpeed's measured 70 and
	// 140 MB/s of text, 27 MB/s at the r = 0.42 of a post-ReLU feature map
	// and 4.7 MB/s at the r = 0.9 a body must reach to travel packed at all.
	// 16 MB/s sits between, 4.5× above the paper's 30 Mbit/s Wi-Fi and 10×
	// under the slowest loopback reading (DESIGN.md has the measurements).
	packBelowBytesPerSec = 16e6

	// linkBoundBytes is the smallest transfer whose bytes ÷ time says
	// anything about bandwidth: at the break-even rate it takes 4 ms, and
	// under it the time is the round trip's latency, whatever the link (a
	// 5 KB body reads 1–100 MB/s on loopback). A body that small is never
	// worth packing either.
	linkBoundBytes = 64 << 10
)

// uplinkEstimate is what an Offloader has measured of its link to the server,
// from transfers it makes anyway: the model pre-send first, then every
// request. Zero means nothing measured yet.
type uplinkEstimate struct {
	bytesPerSec float64
}

// observe folds one transfer of n bytes that the link carried in took into the
// estimate. A reading is a lower bound on the link — latency, a stalled
// endpoint, a sibling stream's upload only ever make it read slower — so one
// above the estimate replaces it, and one below pulls it down by their
// geometric mean: readings span three decades between a paced link and
// loopback, and on that scale a single stall moves the estimate half way while
// two slow readings in a row settle it.
func (u *uplinkEstimate) observe(n int64, took time.Duration) {
	if n < linkBoundBytes || took <= 0 {
		return
	}
	rate := float64(n) / took.Seconds()
	if rate < u.bytesPerSec {
		rate = math.Sqrt(u.bytesPerSec * rate)
	}
	u.bytesPerSec = rate
}

// worthPacking reports whether a body of n bytes should travel packed: the
// link has been measured, and found slow.
func (u uplinkEstimate) worthPacking(n int) bool {
	return n >= linkBoundBytes && u.bytesPerSec > 0 && u.bytesPerSec < packBelowBytesPerSec
}
