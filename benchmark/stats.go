package main

import (
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (nearest rank) of vals; 0 when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle values of an even-sized sample.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4) gives
// them; 0 for fewer than two values.
func spread(vals []float64) float64 {
	m := len(vals)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := float64(i*(m+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// ratio is a/b, 0 when b is 0 (JSON cannot carry NaN or Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
