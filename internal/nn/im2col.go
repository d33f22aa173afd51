package nn

import (
	"websnap/internal/tensor"
)

// This file holds the two reference convolutions that tests compare the
// production path (Conv.ForwardCtx, implicit GEMM) against: the naive loop
// nest and explicit im2col + GEMM. Neither runs in a forward pass.

// ForwardIm2col computes the same convolution as Forward via im2col +
// GEMM: the input is unrolled into a column matrix so the convolution
// becomes a dense [outC, inC·k·k] × [inC·k·k, oh·ow] matrix product
// executed by the shared tensor.Gemm kernel.
//
// The result is bit-identical to Forward: the accumulation order per output
// element is the same (channels-major, kernel row, kernel column — padding
// positions contribute exact-zero terms).
func (c *Conv) ForwardIm2col(in *tensor.Tensor) (*tensor.Tensor, error) {
	outShape, err := c.OutputShape(in.Shape())
	if err != nil {
		return nil, err
	}
	oh, ow := outShape[1], outShape[2]
	cols := oh * ow
	rows := c.inC * c.k * c.k
	out, err := tensor.New(outShape...)
	if err != nil {
		return nil, err
	}
	col := tensor.GetBuf(rows * cols)
	c.buildColumns(in, oh, ow, col)
	tensor.Gemm(out.Data(), c.weight.Data(), col, c.bias.Data(), c.outC, rows, cols)
	tensor.PutBuf(col)
	return out, nil
}

// buildColumns unrolls the input into the im2col matrix col, which must
// hold inC·k·k·oh·ow floats. Every position is written — padding
// positions get explicit zeros — so col may be reused scratch.
func (c *Conv) buildColumns(in *tensor.Tensor, oh, ow int, col []float32) {
	h, w := in.Dim(1), in.Dim(2)
	cols := oh * ow
	src := in.Data()
	r := 0
	for ic := 0; ic < c.inC; ic++ {
		base := ic * h * w
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				dst := col[r*cols : (r+1)*cols]
				p := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.stride - c.pad + ky
					if iy < 0 || iy >= h {
						for e := 0; e < ow; e++ {
							dst[p] = 0
							p++
						}
						continue
					}
					rowBase := base + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.stride - c.pad + kx
						if ix >= 0 && ix < w {
							dst[p] = src[rowBase+ix]
						} else {
							dst[p] = 0
						}
						p++
					}
				}
				r++
			}
		}
	}
}

// forwardChannels computes output channels [ocLo, ocHi) with the naive
// loop nest, skipping padding positions.
func (c *Conv) forwardChannels(in, out *tensor.Tensor, ocLo, ocHi int) {
	h, w := in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	src := in.Data()
	dst := out.Data()
	wt := c.weight.Data()
	bias := c.bias.Data()
	for oc := ocLo; oc < ocHi; oc++ {
		wBase := oc * c.inC * c.k * c.k
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*c.stride - c.pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*c.stride - c.pad
				sum := bias[oc]
				for ic := 0; ic < c.inC; ic++ {
					sBase := ic * h * w
					wcBase := wBase + ic*c.k*c.k
					for ky := 0; ky < c.k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						rowS := sBase + iy*w
						rowW := wcBase + ky*c.k
						for kx := 0; kx < c.k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							sum += src[rowS+ix] * wt[rowW+kx]
						}
					}
				}
				dst[(oc*oh+oy)*ow+ox] = sum
			}
		}
	}
}
