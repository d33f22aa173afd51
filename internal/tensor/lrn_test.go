package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// lrnSpecials are the inputs where a vector LRN could part from the scalar
// loop: both zeros, subnormals, the infinities, NaNs with distinct payloads
// and signs (which one survives a sum or a quotient is the pin), and
// magnitudes whose square overflows float32 but not float64.
var lrnSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1e-40,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001),
	math.Float32frombits(0x7f800123), math.Float32frombits(0x7fa5a5a5),
	1e20, -3e38, math.MaxFloat32,
}

// lrnInput fills n values: a special every fifth value, a deterministic
// spread over [-50, 50) elsewhere.
func lrnInput(n int, seed uint64) []float32 {
	s := make([]float32, n)
	for i := range s {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if i%5 == 0 {
			s[i] = lrnSpecials[(i/5+int(seed%7))%len(lrnSpecials)]
		} else {
			s[i] = float32(seed%100000)/1000 - 50
		}
	}
	return s
}

// checkLRNRow runs LRNRow and lrnRowScalar on the same window and fails on
// the first output whose bits differ, or on a write past len(dst).
func checkLRNRow(t *testing.T, what string, x, ring []float32, n, stride, first, count int, k float64) {
	t.Helper()
	got, want := make([]float32, n+1), make([]float32, n)
	got[n] = 99
	LRNRow(got[:n], x, ring, stride, first, count, k)
	lrnRowScalar(want, x, ring, stride, first, count, k)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: output %d = %v (%#08x), scalar %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	if got[n] != 99 {
		t.Fatalf("%s: wrote past the end", what)
	}
}

// TestLRNRowMatchesScalar holds LRNRow to lrnRowScalar bit for bit on
// rings of 1, 3, 5 and 7 rows with every window the layer can ask of them
// — each first row and each count, so full windows, windows clipped at
// either channel edge and the short windows of a layer with fewer channels
// than its local size, wrapping or not — at α of 1e-4, 1 and 1e10 and
// every row length from 1 to 13 (vector bodies, scalar tails and both)
// and 256, on inputs full of lrnSpecials. With the assembly compiled in
// this compares it to the portable loop; without, the loop to itself.
func TestLRNRowMatchesScalar(t *testing.T) {
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 256}
	for _, size := range []int{1, 3, 5, 7} {
		for _, alpha := range []float64{1e-4, 1, 1e10} {
			k := alpha / float64(size)
			for _, n := range lengths {
				stride := n + 3
				ring := lrnInput(size*stride, uint64(size*1000+n))
				x := lrnInput(n, uint64(n))
				for first := 0; first < size; first++ {
					for count := 1; count <= size; count++ {
						what := fmt.Sprintf("size %d alpha %g n %d rows %d+%d", size, alpha, n, first, count)
						checkLRNRow(t, what, x, ring, n, stride, first, count, k)
					}
				}
			}
		}
	}
}

// FuzzLRNRow feeds arbitrary float32 bit patterns, NaN payloads included,
// and α through LRNRow and holds it to lrnRowScalar bit for bit. shape
// picks the ring's size (1, 3, 5 or 7 rows) and the window's first row and
// count; the values fill the ring rows and then the output channel's row.
func FuzzLRNRow(f *testing.F) {
	seed := make([]byte, 0, 4*len(lrnSpecials))
	for _, v := range lrnSpecials {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(seed, 1e-4, uint8(0x1b))
	f.Add(seed, 1e10, uint8(0x07))
	f.Add(seed[:4*6], 1.0, uint8(0x21))
	f.Add(seed, math.Inf(1), uint8(0x02))
	f.Add(seed, math.NaN(), uint8(0x1a))
	// One ring row of NaNs over a vector body and a tail, under a NaN α:
	// which NaN k·s keeps decides the output's bits.
	nans := append(append([]byte(nil), seed[4*7:4*11]...), seed[4*7:4*10]...)
	for range 7 {
		nans = binary.LittleEndian.AppendUint32(nans, math.Float32bits(1))
	}
	f.Add(nans, math.NaN(), uint8(0))
	f.Add([]byte{}, 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, alpha float64, shape uint8) {
		size := 2*int(shape&3) + 1
		first := int(shape>>2) % size
		count := int(shape>>5)%size + 1
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		n := len(src) / (size + 1)
		if n == 0 {
			return
		}
		ring, x := src[:size*n], src[size*n:]
		checkLRNRow(t, fmt.Sprintf("alpha %g rows %d+%d of %d", alpha, first, count, size),
			x, ring, n, n, first, count, alpha/float64(size))
	})
}
