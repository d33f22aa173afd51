package nn

import (
	"fmt"
	"sync/atomic"

	"websnap/internal/tensor"
)

// Conv is a 2-D convolution layer with square filters, matching the paper's
// description: each of OutC filters scans the input with stride Stride and
// zero padding Pad, producing one output feature map per filter.
type Conv struct {
	name   string
	inC    int
	outC   int
	k      int
	stride int
	pad    int
	// weight shape: [outC, inC, k, k]; bias shape: [outC].
	weight *tensor.Tensor
	bias   *tensor.Tensor
	// packed is weight repacked into GEMM panels: built by the first
	// float32 plan compiled over this layer (prepack), shared by every plan,
	// range and inception sub-program that runs it, and dropped when the
	// weights are rewritten. While it is nil — a step run on a bare
	// context, int8 calibration — each forward packs into a pooled buffer
	// instead.
	packed atomic.Pointer[tensor.PackedA]
}

var _ Layer = (*Conv)(nil)

// NewConv constructs a convolution layer with zeroed parameters.
func NewConv(name string, inC, outC, k, stride, pad int) (*Conv, error) {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: conv %q: invalid geometry inC=%d outC=%d k=%d stride=%d pad=%d",
			name, inC, outC, k, stride, pad)
	}
	w, err := tensor.New(outC, inC, k, k)
	if err != nil {
		return nil, err
	}
	b, err := tensor.New(outC)
	if err != nil {
		return nil, err
	}
	return &Conv{name: name, inC: inC, outC: outC, k: k, stride: stride, pad: pad, weight: w, bias: b}, nil
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// Type implements Layer.
func (c *Conv) Type() LayerType { return TypeConv }

// Geometry returns (inC, outC, kernel, stride, pad).
func (c *Conv) Geometry() (inC, outC, k, stride, pad int) {
	return c.inC, c.outC, c.k, c.stride, c.pad
}

// OutputShape implements Layer.
func (c *Conv) OutputShape(in []int) ([]int, error) {
	ic, h, w, err := shapeCHW(in)
	if err != nil {
		return nil, fmt.Errorf("conv %q: %w", c.name, err)
	}
	if ic != c.inC {
		return nil, fmt.Errorf("conv %q: %w: got %d input channels, want %d", c.name, ErrBadShape, ic, c.inC)
	}
	oh := convOut(h, c.k, c.stride, c.pad)
	ow := convOut(w, c.k, c.stride, c.pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv %q: %w: input %dx%d too small for k=%d stride=%d pad=%d",
			c.name, ErrBadShape, h, w, c.k, c.stride, c.pad)
	}
	return []int{c.outC, oh, ow}, nil
}

// Traits implements Layer.
func (c *Conv) Traits(in []int) (StepTraits, error) {
	return StepTraits{Algo: "direct-packed"}, nil
}

// ForwardCtx implements Layer with the im2col-free direct convolution
// (tensor.GemmConvPacked): the packer builds GEMM panels straight from the
// input — whole slivers copied from one input row where no tap is padding,
// the input planes themselves for a 1x1/stride-1/pad-0 layer, run by run at
// padded borders and row wraps — so the column matrix never exists and the
// layer needs no scratch. The shared packed GEMM kernel fans column blocks
// across CPUs for large layers; the per-element accumulation order does not
// depend on the parallelism, so results are deterministic.
func (c *Conv) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	c.forward(in, out, false)
	return nil
}

// forward runs the convolution, from the prepacked weights when a plan has
// packed them. relu clamps each output in the kernel's epilogue, for a plan
// that fused the following ReLU step into this one.
func (c *Conv) forward(in, out *tensor.Tensor, relu bool) {
	g := c.geom(in.Dim(1), in.Dim(2), out.Dim(1), out.Dim(2))
	if pa := c.packed.Load(); pa != nil {
		tensor.GemmConvPacked(out.Data(), pa, c.bias.Data(), in.Data(), g, relu)
		return
	}
	tensor.GemmConv(out.Data(), c.weight.Data(), c.bias.Data(), c.outC, in.Data(), g, relu)
}

// prepack packs the weights once; later calls, and a call that loses a
// race with another plan compile, keep the copy already there.
func (c *Conv) prepack() {
	if c.packed.Load() == nil {
		rows := c.inC * c.k * c.k
		c.packed.CompareAndSwap(nil, tensor.PackA(c.weight.Data(), c.outC, rows, rows))
	}
}

// packedBytes is the size of the prepacked weights, from the layer's shape
// alone.
func (c *Conv) packedBytes() int64 {
	return 4 * int64(tensor.PackedALen(c.outC, c.inC*c.k*c.k))
}

// geom describes the layer's implicit-GEMM geometry for an h x w input.
func (c *Conv) geom(h, w, oh, ow int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: c.inC, H: h, W: w,
		K: c.k, Stride: c.stride, Pad: c.pad,
		OutH: oh, OutW: ow,
	}
}

// FLOPs implements Layer: 2*k*k*inC multiply-accumulates per output element.
func (c *Conv) FLOPs(in []int) (int64, error) {
	out, err := c.OutputShape(in)
	if err != nil {
		return 0, err
	}
	perOut := int64(2 * c.k * c.k * c.inC)
	return perOut * int64(tensor.Volume(out)), nil
}

// ParamCount implements Layer.
func (c *Conv) ParamCount() int64 {
	return int64(c.outC*c.inC*c.k*c.k) + int64(c.outC)
}

// Params implements Layer.
func (c *Conv) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weight, c.bias} }

// Pooling selects the pooling function of a Pool layer.
type Pooling string

// Pooling kinds.
const (
	MaxPool Pooling = "max"
	AvgPool Pooling = "avg"
)

// Pool is a spatial pooling layer. A max pool selects the maximum value in
// each window; following the paper, its output is smaller than its input,
// which is what makes pool boundaries attractive offloading points.
type Pool struct {
	name   string
	kind   Pooling
	k      int
	stride int
	pad    int
}

var _ Layer = (*Pool)(nil)

// NewPool constructs a pooling layer.
func NewPool(name string, kind Pooling, k, stride, pad int) (*Pool, error) {
	if kind != MaxPool && kind != AvgPool {
		return nil, fmt.Errorf("nn: pool %q: unknown pooling kind %q", name, kind)
	}
	if k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: pool %q: invalid geometry k=%d stride=%d pad=%d", name, k, stride, pad)
	}
	return &Pool{name: name, kind: kind, k: k, stride: stride, pad: pad}, nil
}

// Name implements Layer.
func (p *Pool) Name() string { return p.name }

// Type implements Layer.
func (p *Pool) Type() LayerType { return TypePool }

// Kind returns the pooling function.
func (p *Pool) Kind() Pooling { return p.kind }

// Geometry returns (kernel, stride, pad).
func (p *Pool) Geometry() (k, stride, pad int) { return p.k, p.stride, p.pad }

// OutputShape implements Layer. Caffe-style ceil-mode pooling is used so the
// canonical GoogLeNet/AgeNet geometries come out exactly.
func (p *Pool) OutputShape(in []int) ([]int, error) {
	c, h, w, err := shapeCHW(in)
	if err != nil {
		return nil, fmt.Errorf("pool %q: %w", p.name, err)
	}
	oh := ceilDiv(h+2*p.pad-p.k, p.stride) + 1
	ow := ceilDiv(w+2*p.pad-p.k, p.stride) + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("pool %q: %w: input %dx%d too small for k=%d stride=%d",
			p.name, ErrBadShape, h, w, p.k, p.stride)
	}
	return []int{c, oh, ow}, nil
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Traits implements Layer. A 3x3/stride-1/pad-1 max pool asks for scratch:
// see forwardSame3.
func (p *Pool) Traits(in []int) (StepTraits, error) {
	tr := StepTraits{Algo: string(p.kind)}
	if p.same3() {
		_, h, w, err := shapeCHW(in)
		if err != nil {
			return StepTraits{}, fmt.Errorf("pool %q: %w", p.name, err)
		}
		tr.ScratchFloats = (2*h + 2) * (w + 2)
	}
	return tr, nil
}

// same3 reports the inception modules' pool: a 3x3 max at stride 1 with one
// ring of padding, whose output is the size of its input.
func (p *Pool) same3() bool {
	return p.kind == MaxPool && p.k == 3 && p.stride == 1 && p.pad == 1
}

// ForwardCtx implements Layer. Output positions whose window lies wholly
// inside the input run an interior loop picked once per call from (kind, k),
// with no per-tap bounds or kind test; the 3x3 max interior is
// tensor.MaxPool3x3, a vector kernel where the CPU has one. The rest —
// padding at the top and left, and ceil-mode windows that overhang the
// bottom and right edge even with pad 0 — go through border, which clips
// the window first. Both visit taps ky-major then kx-minor, max keeps the
// earlier of two equal or unordered values and avg divides by the number of
// valid taps, so an output's bits do not depend on which loop produced it.
func (p *Pool) ForwardCtx(ctx *ExecContext, in, out *tensor.Tensor) error {
	if p.same3() {
		p.forwardSame3(ctx, in, out)
		return nil
	}
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	interior := poolMaxRow
	switch {
	case p.kind == AvgPool:
		interior = poolAvgRow
	case p.k == 3:
		interior = poolMaxRow3
	}
	oy0, oy1 := interiorSpan(h, oh, p.k, p.stride, p.pad)
	ox0, ox1 := interiorSpan(w, ow, p.k, p.stride, p.pad)
	src := in.Data()
	dst := out.Data()
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			row := dst[(ch*oh+oy)*ow : (ch*oh+oy+1)*ow]
			if oy < oy0 || oy >= oy1 || ox0 == ox1 {
				p.border(row, plane, h, w, oy, 0, ow)
				continue
			}
			p.border(row, plane, h, w, oy, 0, ox0)
			interior(row[ox0:ox1], plane[(oy*p.stride-p.pad)*w+ox0*p.stride-p.pad:], w, p.k, p.stride)
			p.border(row, plane, h, w, oy, ox1, ow)
		}
	}
	return nil
}

// forwardSame3 is the 3x3/stride-1/pad-1 max pool with no border pass. On
// the 14- and 7-wide planes of the later inception modules between a
// quarter and half of the outputs have a clipped window, and clipping them
// one by one costs several times what the vector kernel spends on the
// rest. Instead each plane is copied into scratch with its edge values
// repeated one ring outwards, which makes every window whole, and the row
// kernel runs once across the copy: output rows and input rows share the
// padded pitch there, so the window origin is linear in the flat output
// index and short rows still fill whole vectors (the two outputs per row
// that land in the padding columns are computed and not copied out).
//
// Repeating edge values is exact, not approximate: a repeated tap holds a
// value the window has already visited — earlier in the same row, or a row
// earlier — and a running maximum that only a strictly greater tap
// replaces is never replaced by a value it has already seen (nor, once
// NaN, by anything). The first tap visited is the clipped window's first
// valid tap and first visits keep their order, so each output is bit for
// bit what border computes.
func (p *Pool) forwardSame3(ctx *ExecContext, in, out *tensor.Tensor) {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	pw := w + 2
	scratch := ctx.Scratch((2*h + 2) * pw)
	padded, res := scratch[:(h+2)*pw], scratch[(h+2)*pw:]
	src := in.Data()
	dst := out.Data()
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for y := 0; y < h; y++ {
			row := padded[(y+1)*pw : (y+2)*pw]
			copy(row[1:], plane[y*w:(y+1)*w])
			row[0], row[w+1] = row[1], row[w]
		}
		copy(padded[:pw], padded[pw:2*pw])
		copy(padded[(h+1)*pw:], padded[h*pw:(h+1)*pw])
		tensor.MaxPool3x3(res[:(h-1)*pw+w], padded, pw, 1)
		outPlane := dst[ch*h*w : (ch+1)*h*w]
		for y := 0; y < h; y++ {
			copy(outPlane[y*w:(y+1)*w], res[y*pw:])
		}
	}
}

// interiorSpan returns the half-open range of output indices along one
// axis whose k-wide window [o*stride-pad, o*stride-pad+k) lies inside
// [0, size).
func interiorSpan(size, outSize, k, stride, pad int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	if size+pad >= k {
		hi = min((size+pad-k)/stride+1, outSize)
	}
	return min(lo, hi), hi
}

// poolMaxRow writes one run of interior max-pool outputs. src starts at the
// first output's window origin in a plane of row length w.
func poolMaxRow(dst, src []float32, w, k, stride int) {
	for i := range dst {
		win := src[i*stride:]
		acc := win[0]
		for ky := 0; ky < k; ky++ {
			for _, v := range win[ky*w : ky*w+k] {
				if v > acc {
					acc = v
				}
			}
		}
		dst[i] = acc
	}
}

// poolMaxRow3 is poolMaxRow with the 3x3 window — every max pool in the
// model catalog — handed to the tensor package's row kernel.
func poolMaxRow3(dst, src []float32, w, _, stride int) {
	tensor.MaxPool3x3(dst, src, w, stride)
}

// poolAvgRow is poolMaxRow for average pooling: the sum starts at +0 and
// every tap is valid, so the divisor is k*k.
func poolAvgRow(dst, src []float32, w, k, stride int) {
	n := float32(k * k)
	for i := range dst {
		win := src[i*stride:]
		var acc float32
		for ky := 0; ky < k; ky++ {
			for _, v := range win[ky*w : ky*w+k] {
				acc += v
			}
		}
		dst[i] = acc / n
	}
}

// border writes outputs [ox0, ox1) of output row oy, clipping each window
// to the h x w plane. A window with no valid tap yields 0.
func (p *Pool) border(dst, plane []float32, h, w, oy, ox0, ox1 int) {
	iy0 := oy*p.stride - p.pad
	ky0, ky1 := max(0, -iy0), min(p.k, h-iy0)
	for ox := ox0; ox < ox1; ox++ {
		ix0 := ox*p.stride - p.pad
		kx0, kx1 := max(0, -ix0), min(p.k, w-ix0)
		var acc float32
		if ky0 < ky1 && kx0 < kx1 {
			if p.kind == MaxPool {
				acc = plane[(iy0+ky0)*w+ix0+kx0]
			}
			for ky := ky0; ky < ky1; ky++ {
				taps := plane[(iy0+ky)*w+ix0+kx0 : (iy0+ky)*w+ix0+kx1]
				if p.kind == MaxPool {
					for _, v := range taps {
						if v > acc {
							acc = v
						}
					}
				} else {
					for _, v := range taps {
						acc += v
					}
				}
			}
			if p.kind == AvgPool {
				acc /= float32((ky1 - ky0) * (kx1 - kx0))
			}
		}
		dst[ox] = acc
	}
}

// FLOPs implements Layer: one comparison/add per window element.
func (p *Pool) FLOPs(in []int) (int64, error) {
	out, err := p.OutputShape(in)
	if err != nil {
		return 0, err
	}
	return int64(p.k*p.k) * int64(tensor.Volume(out)), nil
}

// ParamCount implements Layer.
func (p *Pool) ParamCount() int64 { return 0 }

// Params implements Layer.
func (p *Pool) Params() []*tensor.Tensor { return nil }
