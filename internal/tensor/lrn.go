package tensor

import (
	"fmt"
	"math"
)

// LRNRow writes len(dst) outputs of a local response normalization with
// β = 0.75 across channels: dst[i] = x[i] / (r·√r), r = √(1 + k·s), where s
// is the sum of the squares of element i of the window's rows. ring holds
// len(ring)/stride channel rows, stride floats apart; the window is count
// of them (at least one) starting at row first and wrapping past the last
// row to row 0, in increasing channel order. x is the output channel's own
// row, and k is α divided by the window size.
//
// Every element is computed in float64 in the scalar loop's order: each
// window row widened and squared, the squares added one by one starting
// from zero, then k·s, 1+k·s, two square roots, a product and a quotient
// rounded once to float32. With AVX the assembly does four elements at a
// time (and the scalar instructions on the last len(dst)%4) with the same
// IEEE operations lane by lane and no fused multiply-add, so the two paths
// agree bit for bit, NaN payloads included.
func LRNRow(dst, x, ring []float32, stride, first, count int, k float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	rows := len(ring) / max(stride, 1)
	if n > stride || len(x) < n || first < 0 || first >= rows || count < 1 || count > rows {
		panic(fmt.Sprintf("tensor: LRNRow: %d outputs, %d inputs, ring of %d floats, stride %d, rows %d+%d",
			n, len(x), len(ring), stride, first, count))
	}
	if haveAVX {
		lrnRowAVX(&dst[0], &x[0], &ring[0], stride, first, count, rows, n, k)
		return
	}
	lrnRowScalar(dst, x, ring, stride, first, count, k)
}

// lrnRowScalar is LRNRow's portable path and the assembly's oracle. The
// explicit float64 conversions keep a compiler from fusing a multiply into
// the add that follows it. An add or a multiply of two NaNs returns the
// one in its first operand, and a compiler may put either operand of s+v²
// or k·s first, so a sum that is already a NaN is left as it is: the NaN
// that comes out is the first in window order, or k's — the choice the
// assembly makes by naming the sum first.
func lrnRowScalar(dst, x, ring []float32, stride, first, count int, k float64) {
	rows := len(ring) / stride
	for i := range dst {
		var s float64
		for r, j := first, 0; j < count; r, j = r+1, j+1 {
			if r == rows {
				r = 0
			}
			v := float64(ring[r*stride+i])
			if s == s {
				s += float64(v * v)
			}
		}
		if s == s {
			s = float64(k * s)
		}
		r := math.Sqrt(1 + s)
		dst[i] = float32(float64(x[i]) / float64(r*math.Sqrt(r)))
	}
}
