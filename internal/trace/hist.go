package trace

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: an HDR-style log-linear scheme. Values (latencies
// in nanoseconds) are bucketed by their power-of-two octave, with each octave
// split into 1<<subBits linear sub-buckets. Relative bucket error is bounded
// by 2^-subBits (12.5% at subBits=3), which is ample for latency percentiles,
// and bucket lookup is a handful of bit operations — no floating point, no
// locks.
const (
	// subBits is the number of linear sub-bucket bits per octave.
	subBits = 3
	// subCount is the number of sub-buckets per octave.
	subCount = 1 << subBits
	// maxExp is the highest supported octave; values at or above
	// 2^(maxExp+1) ns clamp into the last bucket. 2^42 ns ≈ 73 min.
	maxExp = 42
	// numBuckets is the total bucket count: values below subCount map
	// linearly (one bucket per nanosecond), each octave above contributes
	// subCount buckets, plus one overflow bucket.
	numBuckets = subCount + (maxExp-subBits+1)*subCount + 1
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top set bit, >= subBits
	if exp > maxExp {
		return numBuckets - 1
	}
	// The sub-bucket is the subBits bits below the top bit.
	sub := (v >> (uint(exp) - subBits)) - subCount
	return subCount + (exp-subBits)*subCount + int(sub)
}

// bucketUpper returns the exclusive upper bound of bucket i in nanoseconds.
// The overflow bucket reports the maximum representable value.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i) + 1
	}
	if i >= numBuckets-1 {
		// Overflow bucket: strictly above every regular bucket's bound.
		return int64(1) << (maxExp + 2)
	}
	i -= subCount
	exp := i/subCount + subBits
	sub := int64(i%subCount) + 1
	return (subCount + sub) << (uint(exp) - subBits)
}

// Histogram is a lock-free, mergeable latency histogram with log-bucketed
// resolution (12.5% worst-case bucket error). All methods are safe for
// concurrent use; Observe is a single atomic add on the hot path.
//
// The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average recorded duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) as the upper
// bound of the bucket containing it — a conservative (never under-reporting)
// estimate with bounded relative error. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(numBuckets - 1))
}

// Merge folds other's observations into h. Concurrent Observes on either
// histogram during a merge are not lost, but the merged totals may reflect a
// slightly torn snapshot — fine for metrics.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := 0; i < numBuckets; i++ {
		if c := other.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
}

// ForEachBucket calls fn for every non-empty bucket in ascending order with
// the bucket's exclusive upper bound and its (non-cumulative) count.
func (h *Histogram) ForEachBucket(fn func(upper time.Duration, count uint64)) {
	for i := 0; i < numBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			fn(time.Duration(bucketUpper(i)), c)
		}
	}
}

// ExportBuckets returns a sparse snapshot of the histogram for wire
// digests: occupied buckets as [index, count] pairs in index order, plus
// the exact total count and sum in nanoseconds. A concurrent Observe may
// tear the snapshot slightly (fine for telemetry); MergeBuckets
// reconstructs an equivalent histogram on the receiver.
func (h *Histogram) ExportBuckets() (buckets [][2]int64, count uint64, sumNanos int64) {
	for i := 0; i < numBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			buckets = append(buckets, [2]int64{int64(i), int64(c)})
		}
	}
	return buckets, h.count.Load(), h.sum.Load()
}

// MergeBuckets folds an exported sparse snapshot into h — the receiving
// half of the digest round trip. Out-of-range bucket indexes clamp into
// the overflow bucket rather than corrupting memory (digests arrive from
// the network).
func (h *Histogram) MergeBuckets(buckets [][2]int64, count uint64, sumNanos int64) {
	for _, b := range buckets {
		i, c := b[0], b[1]
		if c <= 0 {
			continue
		}
		if i < 0 || i >= numBuckets {
			i = numBuckets - 1
		}
		h.counts[i].Add(uint64(c))
	}
	h.count.Add(count)
	h.sum.Add(sumNanos)
}

// CountAbove returns how many observations fell in buckets strictly above
// the one containing threshold — a conservative lower bound on the number
// of observations exceeding it (observations sharing the threshold's
// bucket are not counted). This is the SLO engine's bad-event counter over
// digest data.
func (h *Histogram) CountAbove(threshold time.Duration) uint64 {
	idx := bucketIndex(int64(threshold))
	var n uint64
	for i := idx + 1; i < numBuckets; i++ {
		n += h.counts[i].Load()
	}
	return n
}

// Quantiles is a fixed percentile summary of a histogram.
type Quantiles struct {
	Count         uint64
	Mean          time.Duration
	P50, P95, P99 time.Duration
}

// Summary returns the histogram's count, mean, and p50/p95/p99.
func (h *Histogram) Summary() Quantiles {
	return Quantiles{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
