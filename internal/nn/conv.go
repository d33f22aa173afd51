package nn

import (
	"fmt"

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

// Forward implements Layer via the standalone shim.
func (c *Conv) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return forwardStandalone(c, in)
}

// Traits implements Layer.
func (c *Conv) Traits(in []int) (StepTraits, error) {
	return StepTraits{Algo: "direct-packed"}, nil
}

// ForwardCtx implements Layer with the im2col-free direct convolution
// (tensor.GemmConv): input tiles are gathered straight into packed GEMM
// panels, so the column matrix never exists and the layer needs no scratch.
// The shared packed GEMM kernel fans column blocks across CPUs for large
// layers; the per-element accumulation order does not depend on the
// parallelism, so results are deterministic.
func (c *Conv) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	g := c.geom(in.Dim(1), in.Dim(2), out.Dim(1), out.Dim(2))
	tensor.GemmConv(out.Data(), c.weight.Data(), c.bias.Data(), c.outC, in.Data(), g)
	return nil
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

// Forward implements Layer via the standalone shim.
func (p *Pool) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return forwardStandalone(p, in)
}

// Traits implements Layer.
func (p *Pool) Traits(in []int) (StepTraits, error) {
	return StepTraits{Algo: string(p.kind)}, nil
}

// ForwardCtx implements Layer.
func (p *Pool) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	oh, ow := out.Dim(1), out.Dim(2)
	src := in.Data()
	dst := out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*p.stride - p.pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*p.stride - p.pad
				var acc float32
				n := 0
				first := true
				for ky := 0; ky < p.k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := src[base+iy*w+ix]
						switch {
						case p.kind == MaxPool && (first || v > acc):
							acc = v
						case p.kind == AvgPool:
							acc += v
						}
						first = false
						n++
					}
				}
				if p.kind == AvgPool && n > 0 {
					acc /= float32(n)
				}
				dst[(ch*oh+oy)*ow+ox] = acc
			}
		}
	}
	return nil
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
