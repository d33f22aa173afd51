package nn

import (
	"fmt"
	"testing"

	"websnap/internal/tensor"
)

// TestIm2colMatchesDirect: the production convolution and both oracle
// algorithms must agree bit for bit across a range of geometries (strides,
// padding, kernels, channels).
func TestIm2colMatchesDirect(t *testing.T) {
	cases := []struct{ inC, outC, k, stride, pad, size int }{
		{1, 1, 1, 1, 0, 4},
		{3, 8, 3, 1, 1, 8},
		{2, 4, 5, 2, 2, 11},
		{4, 2, 3, 2, 0, 9},
		{8, 16, 3, 1, 1, 14},
		{3, 96, 7, 4, 0, 27},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("c%d_o%d_k%d_s%d_p%d", tc.inC, tc.outC, tc.k, tc.stride, tc.pad), func(t *testing.T) {
			conv, err := NewConv("c", tc.inC, tc.outC, tc.k, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			rng := &archRNG{s: uint64(tc.inC*1000 + tc.k)}
			for i := range conv.weight.Data() {
				conv.weight.Data()[i] = float32(rng.intn(2000))/1000 - 1
			}
			for i := range conv.bias.Data() {
				conv.bias.Data()[i] = float32(rng.intn(100)) / 100
			}
			in := tensor.MustNew(tc.inC, tc.size, tc.size)
			for i := range in.Data() {
				in.Data()[i] = float32(rng.intn(512))/256 - 1
			}
			direct := tensor.MustNew(mustShape(t, conv, in)...)
			conv.forwardChannels(in, direct, 0, tc.outC)
			gemm, err := conv.ForwardIm2col(in)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.SameShape(direct, gemm) {
				t.Fatalf("shapes differ: %v vs %v", direct.Shape(), gemm.Shape())
			}
			packed, err := forwardLayer(conv, in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range direct.Data() {
				if direct.Data()[i] != gemm.Data()[i] || direct.Data()[i] != packed.Data()[i] {
					t.Fatalf("algorithms disagree at %d: naive %v, im2col %v, packed %v",
						i, direct.Data()[i], gemm.Data()[i], packed.Data()[i])
				}
			}
		})
	}
}

func mustShape(t *testing.T, c *Conv, in *tensor.Tensor) []int {
	t.Helper()
	s, err := c.OutputShape(in.Shape())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// BenchmarkConvAlgorithms compares the production packed path with the
// naive and im2col oracles on an AgeNet-conv2-like layer (5x5 over 96
// channels at 28x28).
func BenchmarkConvAlgorithms(b *testing.B) {
	conv, err := NewConv("c", 96, 256, 5, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := &archRNG{s: 9}
	for i := range conv.weight.Data() {
		conv.weight.Data()[i] = float32(rng.intn(2000))/1000 - 1
	}
	in := tensor.MustNew(96, 28, 28)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.intn(512))/256 - 1
	}
	fl, err := conv.FLOPs(in.Shape())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct-packed", func(b *testing.B) {
		b.SetBytes(fl)
		for i := 0; i < b.N; i++ {
			if _, err := forwardLayer(conv, in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(fl)
		for i := 0; i < b.N; i++ {
			out := tensor.MustNew(256, 28, 28)
			conv.forwardChannels(in, out, 0, 256)
		}
	})
	b.Run("im2col", func(b *testing.B) {
		b.SetBytes(fl)
		for i := 0; i < b.N; i++ {
			if _, err := conv.ForwardIm2col(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
