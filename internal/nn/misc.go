package nn

import (
	"fmt"
	"math"

	"websnap/internal/tensor"
)

// Input marks the network's input layer and validates the expected shape.
// It performs no computation; per the paper, the input layer receives the
// user's data and passes it on as a vector.
type Input struct {
	name  string
	shape []int
}

var _ Layer = (*Input)(nil)

// NewInput constructs an input layer expecting the given [C,H,W] shape.
func NewInput(name string, shape ...int) (*Input, error) {
	if _, _, _, err := shapeCHW(shape); err != nil {
		return nil, fmt.Errorf("nn: input %q: %w", name, err)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Input{name: name, shape: s}, nil
}

// Name implements Layer.
func (l *Input) Name() string { return l.name }

// Type implements Layer.
func (l *Input) Type() LayerType { return TypeInput }

// ExpectedShape returns the declared input shape.
func (l *Input) ExpectedShape() []int {
	s := make([]int, len(l.shape))
	copy(s, l.shape)
	return s
}

// OutputShape implements Layer.
func (l *Input) OutputShape(in []int) ([]int, error) {
	if len(in) != len(l.shape) {
		return nil, fmt.Errorf("input %q: %w: got %v, want %v", l.name, ErrBadShape, in, l.shape)
	}
	for i := range in {
		if in[i] != l.shape[i] {
			return nil, fmt.Errorf("input %q: %w: got %v, want %v", l.name, ErrBadShape, in, l.shape)
		}
	}
	return l.ExpectedShape(), nil
}

// Traits implements Layer: pure validation, elided from compiled plans
// (the plan validates the input shape once up front).
func (l *Input) Traits(in []int) (StepTraits, error) {
	return StepTraits{InPlace: true, Identity: true}, nil
}

// ForwardCtx implements Layer.
func (l *Input) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	if out != in {
		copy(out.Data(), in.Data())
	}
	return nil
}

// FLOPs implements Layer.
func (l *Input) FLOPs(in []int) (int64, error) { return 0, nil }

// ParamCount implements Layer.
func (l *Input) ParamCount() int64 { return 0 }

// Params implements Layer.
func (l *Input) Params() []*tensor.Tensor { return nil }

// FC is a fully-connected (inner product) layer: each neuron computes the
// weighted sum of all inputs. Any [C,H,W] input is implicitly flattened.
type FC struct {
	name string
	in   int
	out  int
	// weight shape: [out, in]; bias shape: [out].
	weight *tensor.Tensor
	bias   *tensor.Tensor
}

var _ Layer = (*FC)(nil)

// NewFC constructs a fully-connected layer with zeroed parameters.
func NewFC(name string, in, out int) (*FC, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: fc %q: invalid geometry in=%d out=%d", name, in, out)
	}
	w, err := tensor.New(out, in)
	if err != nil {
		return nil, err
	}
	b, err := tensor.New(out)
	if err != nil {
		return nil, err
	}
	return &FC{name: name, in: in, out: out, weight: w, bias: b}, nil
}

// Name implements Layer.
func (l *FC) Name() string { return l.name }

// Type implements Layer.
func (l *FC) Type() LayerType { return TypeFC }

// Geometry returns (in, out).
func (l *FC) Geometry() (in, out int) { return l.in, l.out }

// OutputShape implements Layer.
func (l *FC) OutputShape(in []int) ([]int, error) {
	if tensor.Volume(in) != l.in {
		return nil, fmt.Errorf("fc %q: %w: input volume %d, want %d", l.name, ErrBadShape, tensor.Volume(in), l.in)
	}
	return []int{l.out}, nil
}

// Traits implements Layer.
func (l *FC) Traits(in []int) (StepTraits, error) {
	return StepTraits{Algo: "gemv"}, nil
}

// ForwardCtx implements Layer: the inner product is the shared GEMM
// kernel's n==1 matrix-vector path (any [C,H,W] input is implicitly
// flattened by reading its storage directly).
func (l *FC) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	tensor.Gemm(out.Data(), l.weight.Data(), in.Data(), l.bias.Data(), l.out, l.in, 1)
	return nil
}

// FLOPs implements Layer.
func (l *FC) FLOPs(in []int) (int64, error) {
	if _, err := l.OutputShape(in); err != nil {
		return 0, err
	}
	return 2 * int64(l.in) * int64(l.out), nil
}

// ParamCount implements Layer.
func (l *FC) ParamCount() int64 { return int64(l.in)*int64(l.out) + int64(l.out) }

// Params implements Layer.
func (l *FC) Params() []*tensor.Tensor { return []*tensor.Tensor{l.weight, l.bias} }

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	name string
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Type implements Layer.
func (l *ReLU) Type() LayerType { return TypeReLU }

// OutputShape implements Layer.
func (l *ReLU) OutputShape(in []int) ([]int, error) {
	out := make([]int, len(in))
	copy(out, in)
	return out, nil
}

// Traits implements Layer.
func (l *ReLU) Traits(in []int) (StepTraits, error) {
	return StepTraits{InPlace: true}, nil
}

// ForwardCtx implements Layer. Alias-safe: each element is read before
// its slot is written.
func (l *ReLU) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	src := in.Data()
	dst := out.Data()
	for i, v := range src {
		if v < 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
	return nil
}

// FLOPs implements Layer.
func (l *ReLU) FLOPs(in []int) (int64, error) { return int64(tensor.Volume(in)), nil }

// ParamCount implements Layer.
func (l *ReLU) ParamCount() int64 { return 0 }

// Params implements Layer.
func (l *ReLU) Params() []*tensor.Tensor { return nil }

// LRN is local response normalization across channels (Krizhevsky-style),
// used by GoogLeNet and the Levi–Hassner age/gender networks.
type LRN struct {
	name      string
	localSize int
	alpha     float64
	beta      float64
}

var _ Layer = (*LRN)(nil)

// NewLRN constructs an LRN layer.
func NewLRN(name string, localSize int, alpha, beta float64) (*LRN, error) {
	if localSize <= 0 || localSize%2 == 0 {
		return nil, fmt.Errorf("nn: lrn %q: local size must be odd and positive, got %d", name, localSize)
	}
	return &LRN{name: name, localSize: localSize, alpha: alpha, beta: beta}, nil
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Type implements Layer.
func (l *LRN) Type() LayerType { return TypeLRN }

// Settings returns (localSize, alpha, beta).
func (l *LRN) Settings() (int, float64, float64) { return l.localSize, l.alpha, l.beta }

// OutputShape implements Layer.
func (l *LRN) OutputShape(in []int) ([]int, error) {
	if _, _, _, err := shapeCHW(in); err != nil {
		return nil, fmt.Errorf("lrn %q: %w", l.name, err)
	}
	out := make([]int, len(in))
	copy(out, in)
	return out, nil
}

// lrnBlock is the number of spatial positions LRN normalizes at a time:
// wide enough to amortize the per-channel loop set-up, small enough that
// the ring and the float64 window sums stay in L1.
const lrnBlock = 256

// Traits implements Layer: in-place, with scratch for a ring of localSize
// channel rows of one position block (the window must read
// pre-normalization values even when out aliases in).
func (l *LRN) Traits(in []int) (StepTraits, error) {
	if _, _, _, err := shapeCHW(in); err != nil {
		return StepTraits{}, fmt.Errorf("lrn %q: %w", l.name, err)
	}
	return StepTraits{InPlace: true, ScratchFloats: l.localSize * lrnBlock}, nil
}

// ForwardCtx implements Layer. Channel planes are streamed in blocks of
// lrnBlock positions. Within a block, channel j's values are copied into
// ring row j%localSize when j enters the window (at output channel j-half)
// and stay until it leaves, so every read happens before the in-place write
// of that channel. Output channel ch sums the squares of its window fresh,
// in increasing channel order in float64 — the same operands in the same
// order as the naive per-position loop — and scales by
// (1+alpha/n*sum)^-beta, computed with two square roots for beta=0.75
// (every LRN in the model catalog) and math.Pow otherwise.
func (l *LRN) ForwardCtx(ctx *ExecContext, in, out *tensor.Tensor) error {
	c, plane := in.Dim(0), in.Dim(1)*in.Dim(2)
	src := in.Data()
	dst := out.Data()
	ring := ctx.Scratch(l.localSize * lrnBlock)
	size, half := l.localSize, l.localSize/2
	k := l.alpha / float64(size)
	var sums [lrnBlock]float64
	for p0 := 0; p0 < plane; p0 += lrnBlock {
		n := min(lrnBlock, plane-p0)
		sum := sums[:n]
		for j := 0; j < min(half, c); j++ {
			copy(ring[j*lrnBlock:], src[j*plane+p0:j*plane+p0+n])
		}
		for ch := 0; ch < c; ch++ {
			if j := ch + half; j < c {
				copy(ring[j%size*lrnBlock:], src[j*plane+p0:j*plane+p0+n])
			}
			clear(sum)
			for j := max(ch-half, 0); j <= min(ch+half, c-1); j++ {
				for i, f := range ring[j%size*lrnBlock:][:n] {
					v := float64(f)
					sum[i] += v * v
				}
			}
			x := ring[ch%size*lrnBlock:][:n]
			o := dst[ch*plane+p0:][:n]
			if l.beta == 0.75 {
				for i, s := range sum {
					r := math.Sqrt(1 + k*s)
					o[i] = float32(float64(x[i]) / (r * math.Sqrt(r)))
				}
			} else {
				for i, s := range sum {
					o[i] = float32(float64(x[i]) * math.Pow(1+k*s, -l.beta))
				}
			}
		}
	}
	return nil
}

// FLOPs implements Layer: roughly 2 ops per neighbor plus the power.
func (l *LRN) FLOPs(in []int) (int64, error) {
	return int64(tensor.Volume(in)) * int64(2*l.localSize+2), nil
}

// ParamCount implements Layer.
func (l *LRN) ParamCount() int64 { return 0 }

// Params implements Layer.
func (l *LRN) Params() []*tensor.Tensor { return nil }

// Dropout is an identity at inference time (the paper offloads only the
// inference phase); it exists so architectures match their training-time
// descriptions layer-for-layer.
type Dropout struct {
	name  string
	ratio float64
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with the given training-time ratio.
func NewDropout(name string, ratio float64) *Dropout {
	return &Dropout{name: name, ratio: ratio}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// Type implements Layer.
func (l *Dropout) Type() LayerType { return TypeDropout }

// Ratio returns the training-time drop ratio.
func (l *Dropout) Ratio() float64 { return l.ratio }

// OutputShape implements Layer.
func (l *Dropout) OutputShape(in []int) ([]int, error) {
	out := make([]int, len(in))
	copy(out, in)
	return out, nil
}

// Traits implements Layer: identity, elided from compiled plans.
func (l *Dropout) Traits(in []int) (StepTraits, error) {
	return StepTraits{InPlace: true, Identity: true}, nil
}

// ForwardCtx implements Layer.
func (l *Dropout) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	if out != in {
		copy(out.Data(), in.Data())
	}
	return nil
}

// FLOPs implements Layer.
func (l *Dropout) FLOPs(in []int) (int64, error) { return 0, nil }

// ParamCount implements Layer.
func (l *Dropout) ParamCount() int64 { return 0 }

// Params implements Layer.
func (l *Dropout) Params() []*tensor.Tensor { return nil }

// Softmax turns the final scores into a probability distribution over the
// output labels.
type Softmax struct {
	name string
}

var _ Layer = (*Softmax)(nil)

// NewSoftmax constructs a softmax layer.
func NewSoftmax(name string) *Softmax { return &Softmax{name: name} }

// Name implements Layer.
func (l *Softmax) Name() string { return l.name }

// Type implements Layer.
func (l *Softmax) Type() LayerType { return TypeSoftmax }

// OutputShape implements Layer.
func (l *Softmax) OutputShape(in []int) ([]int, error) {
	out := make([]int, len(in))
	copy(out, in)
	return out, nil
}

// Traits implements Layer.
func (l *Softmax) Traits(in []int) (StepTraits, error) {
	return StepTraits{InPlace: true}, nil
}

// ForwardCtx implements Layer. Alias-safe: the max is taken before any
// write, and each element is read before its slot is written.
func (l *Softmax) ForwardCtx(_ *ExecContext, in, out *tensor.Tensor) error {
	src := in.Data()
	dst := out.Data()
	if len(src) == 0 {
		return nil
	}
	maxV := src[0]
	for _, v := range src[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	if sum > 0 {
		inv := float32(1 / sum)
		for i := range dst {
			dst[i] *= inv
		}
	}
	return nil
}

// FLOPs implements Layer.
func (l *Softmax) FLOPs(in []int) (int64, error) { return 3 * int64(tensor.Volume(in)), nil }

// ParamCount implements Layer.
func (l *Softmax) ParamCount() int64 { return 0 }

// Params implements Layer.
func (l *Softmax) Params() []*tensor.Tensor { return nil }
