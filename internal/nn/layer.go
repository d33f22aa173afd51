// Package nn implements the deep-neural-network substrate the paper's web
// apps run on: CNN layers (convolution, pooling, fully-connected, ReLU, LRN,
// dropout, softmax, inception), a network abstraction with real forward
// execution, per-layer FLOP and parameter accounting, model serialization,
// and front/rear splitting for partial inference.
//
// It plays the role of the Caffe.js framework in the paper: it loads a
// pre-trained model (a net descriptor plus a weight blob) into the web app
// and performs forward execution on it.
package nn

import (
	"errors"
	"fmt"

	"websnap/internal/tensor"
)

// LayerType identifies the kind of a layer. It is serialized into net
// descriptors, so values are stable strings rather than iota constants.
type LayerType string

// Layer types understood by the engine.
const (
	TypeInput     LayerType = "input"
	TypeConv      LayerType = "conv"
	TypePool      LayerType = "pool"
	TypeFC        LayerType = "fc"
	TypeReLU      LayerType = "relu"
	TypeLRN       LayerType = "lrn"
	TypeDropout   LayerType = "dropout"
	TypeSoftmax   LayerType = "softmax"
	TypeInception LayerType = "inception"
)

var (
	// ErrBadShape is returned when a layer receives an input shape it
	// cannot process.
	ErrBadShape = errors.New("nn: incompatible input shape")
	// ErrUnknownLayer is returned when deserializing an unrecognized
	// layer type.
	ErrUnknownLayer = errors.New("nn: unknown layer type")
)

// Layer is one node in the network's forward chain.
//
// The engine treats a network as a series of layer executions (the paper's
// "forward execution"); composite structures such as GoogLeNet's inception
// modules are modeled as a single composite layer so that partition points
// remain simple layer boundaries.
type Layer interface {
	// Name returns the layer's unique name within its network (e.g.
	// "conv1", "1st_pool").
	Name() string
	// Type returns the layer's kind.
	Type() LayerType
	// OutputShape returns the output dimensions for the given input
	// dimensions (channels-first: [C, H, W], or [N] after flattening).
	OutputShape(in []int) ([]int, error)
	// ForwardCtx executes the layer as one step of a compiled plan,
	// reading in and writing the pre-allocated out. Shapes are validated
	// at plan-compile time, not here. Per-step scratch comes from ctx.
	// Layers whose Traits declare InPlace must tolerate out aliasing in;
	// all layers must tolerate distinct in/out.
	ForwardCtx(ctx *ExecContext, in, out *tensor.Tensor) error
	// Traits reports the layer's execution properties for the given
	// input shape (in-place capability, identity elision, scratch need,
	// kernel choice) so the plan compiler can assign buffers.
	Traits(in []int) (StepTraits, error)
	// FLOPs estimates the floating point operations needed to execute the
	// layer on the given input shape.
	FLOPs(in []int) (int64, error)
	// ParamCount returns the number of learned parameters.
	ParamCount() int64
	// Params returns the parameter tensors in a stable order for weight
	// (de)serialization. Layers without parameters return nil.
	Params() []*tensor.Tensor
}

// shapeCHW validates a [C,H,W] input shape.
func shapeCHW(in []int) (c, h, w int, err error) {
	if len(in) != 3 {
		return 0, 0, 0, fmt.Errorf("%w: want [C H W], got %v", ErrBadShape, in)
	}
	return in[0], in[1], in[2], nil
}

// convOut computes the output spatial size for a window op.
func convOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
