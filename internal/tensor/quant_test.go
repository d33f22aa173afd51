package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// quantizeRef is Quantize's rule written out once more, one value at a
// time: the oracle the vector pass and the scalar path are both held to.
func quantizeRef(dst []int8, src []float32, scale float32) {
	inv := float32(0)
	if scale != 0 {
		inv = 1 / scale
	}
	for i, v := range src {
		f := v * inv
		switch {
		case f >= 127:
			dst[i] = 127
		case f <= -127:
			dst[i] = -127
		case f >= 0:
			dst[i] = int8(f + 0.5)
		default:
			dst[i] = int8(f - 0.5)
		}
	}
}

// maxAbsRef is MaxAbs's scalar rule: NaNs never win, the result is never -0.
func maxAbsRef(s []float32) float32 {
	var m float32
	for _, v := range s {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// quantSpecials are the values where a vector quantizer could part from
// the scalar rule: NaN (which the scalar rule sends to 0), the infinities,
// both zeros, exact halves (which round away from zero), the largest float
// below one half (whose f+0.5 rounds up to 1), the edges of the clamp, and
// magnitudes past int32 that a careless truncation would wrap.
var quantSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999997, -0.49999997,
	126.5, -126.5, 127, -127, 127.5, -127.5, 126.99999, -126.99999,
	3e9, -3e9, 1e30, -1e30, 1e-40, -1e-40,
}

// quantInput fills n values: the specials in turn, interleaved with a
// deterministic spread over [-200, 200).
func quantInput(n int, seed uint64) []float32 {
	s := make([]float32, n)
	for i := range s {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if i%3 == 0 {
			s[i] = quantSpecials[(i/3+int(seed%5))%len(quantSpecials)]
		} else {
			s[i] = float32(seed%400000)/1000 - 200
		}
	}
	return s
}

// TestQuantizeMatchesScalar holds Quantize to quantizeRef on every length
// from 0 to 67 — vector bodies, scalar tails and both together — at scales
// that make the reciprocal 1, a fraction, 0 (scale 0), +Inf (a denormal
// scale) and negative, on inputs full of quantSpecials, starting at an
// unaligned element.
func TestQuantizeMatchesScalar(t *testing.T) {
	for _, scale := range []float32{1, 0.25, 3.7, 0, 1e-40, -1} {
		for n := 0; n <= 67; n++ {
			src := quantInput(n+1, uint64(n)+7)[1:]
			want := make([]int8, n)
			got := make([]int8, n+1)
			got[n] = 99
			quantizeRef(want, src, scale)
			Quantize(got[:n], src, scale)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scale %g n=%d: Quantize(%g)[%d] = %d, scalar rule %d", scale, n, src[i], i, got[i], want[i])
				}
			}
			if got[n] != 99 {
				t.Fatalf("scale %g n=%d: wrote past the end", scale, n)
			}
		}
	}
}

// TestMaxAbsMatchesScalar holds MaxAbs to maxAbsRef bit for bit on every
// length from 0 to 67, with NaN, ±Inf and ±0 among the values, on runs of
// all-negative zeros and of NaNs alone, which must give +0, and with the
// maximum at every position followed by NaNs in its vector lane.
func TestMaxAbsMatchesScalar(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	for n := 0; n <= 67; n++ {
		cases := [][]float32{quantInput(n+1, uint64(n)+3)[1:], make([]float32, n), make([]float32, n)}
		for i := 0; i < n; i++ {
			cases[1][i], cases[2][i] = negZero, nan
			if i%2 == 0 {
				cases[2][i] = -nan
			}
		}
		// A case without infinities, so the maximum is a finite value.
		finite := append([]float32(nil), cases[0]...)
		for i, v := range finite {
			if math.IsInf(float64(v), 0) {
				finite[i] = -v / 2e30
			}
		}
		cases = append(cases, finite)
		// The maximum at each position in turn, with NaNs after it in the
		// same vector lane: a NaN must not displace what a lane holds.
		for pos := 0; pos < n; pos++ {
			s := quantInput(n, uint64(pos))
			for i, v := range s {
				if v != v || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1000 {
					s[i] = 1
				}
			}
			s[pos] = -1000
			for i := pos + 8; i < n; i += 8 {
				s[i] = nan
			}
			cases = append(cases, s)
		}
		for ci, s := range cases {
			got, want := MaxAbs(s), maxAbsRef(s)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d case %d: MaxAbs = %g (%#08x), scalar rule %g (%#08x)",
					n, ci, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
}

// FuzzQuantize feeds arbitrary float32 bit patterns and scales through
// Quantize and MaxAbs and holds them to the scalar rules.
func FuzzQuantize(f *testing.F) {
	seed := make([]byte, 0, 4*len(quantSpecials))
	for _, v := range quantSpecials {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(seed, float32(1))
	f.Add(seed[:4*9], float32(0.5))
	f.Add([]byte{}, float32(0))
	f.Fuzz(func(t *testing.T, raw []byte, scale float32) {
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		want := make([]int8, len(src))
		got := make([]int8, len(src))
		quantizeRef(want, src, scale)
		Quantize(got, src, scale)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scale %g: Quantize(%g)[%d] = %d, scalar rule %d", scale, src[i], i, got[i], want[i])
			}
		}
		if g, w := MaxAbs(src), maxAbsRef(src); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("MaxAbs = %g, scalar rule %g", g, w)
		}
	})
}
