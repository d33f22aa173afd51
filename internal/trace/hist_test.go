package trace

import (
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries: table-driven spot checks of the log-linear bucket
// layout — exact buckets below the first octave, bounded relative error
// above it, clamping at the top.
func TestBucketBoundaries(t *testing.T) {
	tests := []struct {
		name string
		v    int64
		want int
	}{
		{"zero", 0, 0},
		{"negative clamps to zero", -5, 0},
		{"one ns", 1, 1},
		{"last linear", subCount - 1, subCount - 1},
		{"first octave start", subCount, subCount},
		{"first octave end", 2*subCount - 1, 2*subCount - 1},
		{"second octave start", 2 * subCount, 2 * subCount},
		{"overflow clamps", int64(1) << 60, numBuckets - 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := bucketIndex(tc.v); got != tc.want {
				t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
			}
		})
	}
}

// TestBucketMonotonic: bucket indices never decrease with the value, every
// value falls strictly below its bucket's upper bound, and upper bounds are
// strictly increasing.
func TestBucketMonotonic(t *testing.T) {
	prevIdx := -1
	for v := int64(0); v < 1<<20; v += 97 {
		idx := bucketIndex(v)
		if idx < prevIdx {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prevIdx)
		}
		if upper := bucketUpper(idx); v >= upper {
			t.Fatalf("value %d >= bucketUpper(%d) = %d", v, idx, upper)
		}
		prevIdx = idx
	}
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper(%d) = %d <= bucketUpper(%d) = %d",
				i, bucketUpper(i), i-1, bucketUpper(i-1))
		}
	}
}

// TestBucketRelativeError: the bucket upper bound over-reports a value by at
// most 2^-subBits relative error (plus one ns for the linear range).
func TestBucketRelativeError(t *testing.T) {
	for _, v := range []int64{1, 7, 8, 100, 1000, 12345, 1 << 20, 1<<30 + 12345} {
		upper := bucketUpper(bucketIndex(v))
		maxErr := float64(v)/float64(subCount) + 1
		if float64(upper-v) > maxErr {
			t.Errorf("value %d: upper %d errs by %d, want <= %.0f", v, upper, upper-v, maxErr)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	tests := []struct {
		name    string
		values  []time.Duration
		q       float64
		wantMin time.Duration // quantile must be >= this
		wantMax time.Duration // and <= this (bucket error allowance)
	}{
		{"empty", nil, 0.5, 0, 0},
		{"single", []time.Duration{time.Millisecond}, 0.5, time.Millisecond, time.Millisecond * 9 / 8},
		{
			"p50 of 1..100ms",
			rangeMillis(1, 100), 0.50,
			50 * time.Millisecond, 57 * time.Millisecond,
		},
		{
			"p99 of 1..100ms",
			rangeMillis(1, 100), 0.99,
			99 * time.Millisecond, 112 * time.Millisecond,
		},
		{
			"p95 skewed tail",
			append(rangeMillis(1, 95), rangeMillis(900, 904)...), 0.95,
			95 * time.Millisecond, 107 * time.Millisecond,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.values {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if got < tc.wantMin || got > tc.wantMax {
				t.Errorf("Quantile(%v) = %v, want in [%v, %v]", tc.q, got, tc.wantMin, tc.wantMax)
			}
		})
	}
}

func rangeMillis(lo, hi int) []time.Duration {
	out := make([]time.Duration, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, time.Duration(i)*time.Millisecond)
	}
	return out
}

func TestHistogramMeanAndCount(t *testing.T) {
	var h Histogram
	for _, v := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
		h.Observe(v)
	}
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Errorf("Mean = %v, want 2ms", h.Mean())
	}
	if h.Sum() != 4*time.Millisecond {
		t.Errorf("Sum = %v, want 4ms", h.Sum())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Errorf("Count = %d, want %d", h.Count(), goroutines*perG)
	}
	var bucketTotal uint64
	h.ForEachBucket(func(_ time.Duration, c uint64) { bucketTotal += c })
	if bucketTotal != goroutines*perG {
		t.Errorf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
}
