package tensor

import (
	"fmt"
	"math"
	"testing"
)

// naiveMaxPool3x3 is the loop nest MaxPool3x3 must match bit for bit: taps
// ky-major then kx-minor from tap (0,0), a later tap winning only when
// strictly greater.
func naiveMaxPool3x3(dst, src []float32, w, stride int) {
	for i := range dst {
		acc := src[i*stride]
		for ky := 0; ky < 3; ky++ {
			for kx := 0; kx < 3; kx++ {
				if v := src[i*stride+ky*w+kx]; v > acc {
					acc = v
				}
			}
		}
		dst[i] = acc
	}
}

// TestMaxPool3x3MatchesNaive runs the row kernel over planes 3 to 17 wide
// — below, at and just past one and two vectors — at strides 1 and 2 (the
// assembly's) and 3 (always scalar), both the way Pool calls it: row by
// row, and for stride 1 as one span across the whole plane. Every third
// input is -0, +0, -Inf or NaN, so ties between zeros, a NaN first tap
// (which stays) and a NaN later tap (which never wins) are part of the
// pin. With the assembly compiled in this compares it to the loop nest;
// without, the portable path.
func TestMaxPool3x3MatchesNaive(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{negZero, 0, float32(math.Inf(-1)), float32(math.NaN()), 0, negZero}
	check := func(t *testing.T, what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: output %d = %v (%#08x), want %v (%#08x)", what, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
	for _, w := range []int{3, 7, 8, 9, 14, 15, 16, 17, 28, 35} {
		for _, stride := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("w%d_s%d", w, stride), func(t *testing.T) {
				h := w
				plane := make([]float32, h*w)
				fillSeq(plane, uint64(w*10+stride))
				for i := 0; i < len(plane); i += 3 {
					plane[i] = specials[(i/3)%len(specials)]
				}
				ow, oh := (w-3)/stride+1, (h-3)/stride+1
				for oy := 0; oy < oh; oy++ {
					got, want := make([]float32, ow), make([]float32, ow)
					MaxPool3x3(got, plane[oy*stride*w:], w, stride)
					naiveMaxPool3x3(want, plane[oy*stride*w:], w, stride)
					check(t, fmt.Sprintf("row %d", oy), got, want)
				}
				if stride != 1 {
					return
				}
				span := (h-3)*w + w - 2 // first window origin 0, last (h-3)*w + w-3
				got, want := make([]float32, span), make([]float32, span)
				MaxPool3x3(got, plane, w, 1)
				naiveMaxPool3x3(want, plane, w, 1)
				check(t, "flat span", got, want)
			})
		}
	}
}
