package nn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"websnap/internal/tensor"
)

// ErrBadSplit is returned for an out-of-range partition point.
var ErrBadSplit = errors.New("nn: invalid split point")

// Network is a DNN: a series of layers executed front to back (the paper's
// "forward execution"). Composite structures (inception modules) are single
// layers, so every index into the layer slice is a valid partition point.
type Network struct {
	name   string
	layers []Layer
	input  []int

	// planMu guards plans, the compiled-execution cache keyed by layer
	// range and input shape. Plans are immutable once stored, so lookups
	// are cheap reads and Forward/ForwardRange are safe for concurrent use
	// (the scheduler's workers share one plan).
	planMu sync.RWMutex
	plans  map[planKey]*ExecPlan

	// spec memoizes the encoded descriptor: the layer chain never changes
	// after NewNetwork, so neither does its JSON (see SpecJSON).
	specOnce sync.Once
	spec     []byte
	specErr  error
}

// planKey identifies a compiled plan: the layer range, the input shape,
// and the compute precision, inlined into a comparable struct so cache
// hits allocate nothing.
type planKey struct {
	from, to int
	rank     int
	dims     [4]int
	prec     Precision
}

// NewNetwork assembles a network. The first layer must be an *Input, which
// fixes the expected input shape, and all layer shapes must chain correctly;
// this is validated eagerly so a malformed architecture fails at build time.
func NewNetwork(name string, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network %q: no layers", name)
	}
	in, ok := layers[0].(*Input)
	if !ok {
		return nil, fmt.Errorf("nn: network %q: first layer must be input, got %s", name, layers[0].Type())
	}
	n := &Network{name: name, layers: layers, input: in.ExpectedShape()}
	if _, err := n.OutputShape(); err != nil {
		return nil, fmt.Errorf("nn: network %q: %w", name, err)
	}
	seen := make(map[string]struct{}, len(layers))
	for _, l := range layers {
		if _, dup := seen[l.Name()]; dup {
			return nil, fmt.Errorf("nn: network %q: duplicate layer name %q", name, l.Name())
		}
		seen[l.Name()] = struct{}{}
	}
	return n, nil
}

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// Layers returns the layer chain. The slice is shared; callers must not
// mutate it.
func (n *Network) Layers() []Layer { return n.layers }

// NumLayers returns the number of layers, including the input layer.
func (n *Network) NumLayers() int { return len(n.layers) }

// InputShape returns the expected input shape.
func (n *Network) InputShape() []int {
	s := make([]int, len(n.input))
	copy(s, n.input)
	return s
}

// OutputShape returns the network's final output shape.
func (n *Network) OutputShape() ([]int, error) {
	cur := n.InputShape()
	var err error
	for _, l := range n.layers {
		cur, err = l.OutputShape(cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// Forward runs the full forward execution on in through the cached
// execution plan for in's shape. The input is never mutated and the
// result is always freshly allocated.
func (n *Network) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return n.ForwardRange(in, 0, len(n.layers))
}

// ForwardRange executes layers [from, to) on in. from=0, to=NumLayers() is a
// full forward pass; partial inference executes [0, k) on the client and
// [k, NumLayers()) on the server. Execution goes through a compiled plan
// cached per (range, input shape); the first call for a shape compiles,
// later calls reuse pooled buffers.
func (n *Network) ForwardRange(in *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	p, err := n.planFor(in, from, to, PrecFloat32)
	if err != nil {
		return nil, err
	}
	return p.Forward(in)
}

// ForwardPrec is Forward at an explicit compute precision — the quality
// knob. PrecInt8 runs the calibrated quantized kernels; boundary tensors
// stay float32 either way.
func (n *Network) ForwardPrec(in *tensor.Tensor, prec Precision) (*tensor.Tensor, error) {
	return n.ForwardRangePrec(in, 0, len(n.layers), prec)
}

// ForwardRangePrec is ForwardRange at an explicit compute precision.
func (n *Network) ForwardRangePrec(in *tensor.Tensor, from, to int, prec Precision) (*tensor.Tensor, error) {
	p, err := n.planFor(in, from, to, prec)
	if err != nil {
		return nil, err
	}
	return p.Forward(in)
}

// Plan returns the compiled execution plan for a full forward pass on the
// given input shape, compiling and caching it on first use. Plans are
// safe for concurrent use.
func (n *Network) Plan(shape ...int) (*ExecPlan, error) {
	return n.PlanRange(0, len(n.layers), shape...)
}

// PlanPrec is Plan at an explicit compute precision.
func (n *Network) PlanPrec(prec Precision, shape ...int) (*ExecPlan, error) {
	return n.PlanRangePrec(prec, 0, len(n.layers), shape...)
}

// PlanRange returns the compiled plan for layers [from, to) on the given
// input shape, compiling and caching it on first use.
func (n *Network) PlanRange(from, to int, shape ...int) (*ExecPlan, error) {
	return n.PlanRangePrec(PrecFloat32, from, to, shape...)
}

// PlanRangePrec is PlanRange at an explicit compute precision. Int8 plans
// quantize and calibrate on first compile; the result is cached per
// (range, shape, precision) like any other plan.
func (n *Network) PlanRangePrec(prec Precision, from, to int, shape ...int) (*ExecPlan, error) {
	if from < 0 || to > len(n.layers) || from > to {
		return nil, fmt.Errorf("%w: [%d, %d) of %d layers", ErrBadSplit, from, to, len(n.layers))
	}
	if !prec.Valid() {
		return nil, fmt.Errorf("nn: network %q: unknown precision %q", n.name, prec)
	}
	key, cacheable := n.planKeyFromShape(from, to, shape, prec)
	if cacheable {
		n.planMu.RLock()
		p := n.plans[key]
		n.planMu.RUnlock()
		if p != nil {
			return p, nil
		}
	}
	p, err := newExecPlan(n.name, n.layers[from:to], shape, prec)
	if err != nil {
		return nil, fmt.Errorf("network %q: %w", n.name, err)
	}
	if cacheable {
		n.planMu.Lock()
		if n.plans == nil {
			n.plans = make(map[planKey]*ExecPlan)
		}
		if exist := n.plans[key]; exist != nil {
			p = exist // lost a compile race; keep the shared one
		} else {
			n.plans[key] = p
		}
		n.planMu.Unlock()
	}
	return p, nil
}

func (n *Network) planKeyFromShape(from, to int, shape []int, prec Precision) (planKey, bool) {
	key := planKey{from: from, to: to, rank: len(shape), prec: prec}
	if len(shape) > len(key.dims) {
		return key, false
	}
	copy(key.dims[:], shape)
	return key, true
}

// planFor is PlanRangePrec keyed straight off a tensor's dimensions, so
// cache hits allocate nothing.
func (n *Network) planFor(in *tensor.Tensor, from, to int, prec Precision) (*ExecPlan, error) {
	if from < 0 || to > len(n.layers) || from > to {
		return nil, fmt.Errorf("%w: [%d, %d) of %d layers", ErrBadSplit, from, to, len(n.layers))
	}
	if rank := in.Rank(); rank <= 4 {
		key := planKey{from: from, to: to, rank: rank, prec: prec}
		for i := 0; i < rank; i++ {
			key.dims[i] = in.Dim(i)
		}
		n.planMu.RLock()
		p := n.plans[key]
		n.planMu.RUnlock()
		if p != nil {
			return p, nil
		}
	}
	return n.PlanRangePrec(prec, from, to, in.Shape()...)
}

// LayerInfo describes one layer's static properties at its position in the
// network, as needed by the cost model, the partition chooser, and Fig 1.
type LayerInfo struct {
	Index       int       `json:"index"`
	Name        string    `json:"name"`
	Type        LayerType `json:"type"`
	InputShape  []int     `json:"inputShape"`
	OutputShape []int     `json:"outputShape"`
	FLOPs       int64     `json:"flops"`
	ParamCount  int64     `json:"paramCount"`
	// OutputBytes is the binary (float32) size of the layer's output
	// feature data.
	OutputBytes int64 `json:"outputBytes"`
}

// Describe returns per-layer information for the whole network.
func (n *Network) Describe() ([]LayerInfo, error) {
	infos := make([]LayerInfo, 0, len(n.layers))
	cur := n.InputShape()
	for i, l := range n.layers {
		out, err := l.OutputShape(cur)
		if err != nil {
			return nil, err
		}
		fl, err := l.FLOPs(cur)
		if err != nil {
			return nil, err
		}
		infos = append(infos, LayerInfo{
			Index:       i,
			Name:        l.Name(),
			Type:        l.Type(),
			InputShape:  cur,
			OutputShape: out,
			FLOPs:       fl,
			ParamCount:  l.ParamCount(),
			OutputBytes: 4 * int64(tensor.Volume(out)),
		})
		cur = out
	}
	return infos, nil
}

// TotalFLOPs returns the FLOPs of a full forward pass.
func (n *Network) TotalFLOPs() (int64, error) {
	infos, err := n.Describe()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, li := range infos {
		total += li.FLOPs
	}
	return total, nil
}

// TotalParams returns the number of learned parameters.
func (n *Network) TotalParams() int64 {
	var total int64
	for _, l := range n.layers {
		total += l.ParamCount()
	}
	return total
}

// ModelBytes returns the size of the serialized weights (4 bytes per
// parameter), which is what the client pre-sends to the edge server.
func (n *Network) ModelBytes() int64 { return 4 * n.TotalParams() }

// ResidentBytes returns what holding the model for float32 inference costs
// in memory: the weights plus the packed GEMM panels of every convolution,
// which the first compiled float32 plan builds and the network then keeps.
// It is computed from layer shapes, so it is the same before and after that
// compile.
func (n *Network) ResidentBytes() int64 {
	total := n.ModelBytes()
	eachConv(n.layers, func(c *Conv) { total += c.packedBytes() })
	return total
}

// eachConv calls visit for every convolution in layers, inception branches
// included.
func eachConv(layers []Layer, visit func(*Conv)) {
	for _, l := range layers {
		switch l := l.(type) {
		case *Conv:
			visit(l)
		case *Inception:
			for _, b := range l.branches {
				eachConv(b, visit)
			}
		}
	}
}

// weightsChanged drops everything derived from the parameter tensors: the
// cached plans (an int8 plan owns quantized copies of the weights it was
// compiled from) and every convolution's packed panels. InitWeights and
// DecodeWeights, which write the parameters in place, call it; the next
// forward compiles, quantizes and packs afresh.
func (n *Network) weightsChanged() {
	n.planMu.Lock()
	n.plans = nil
	n.planMu.Unlock()
	eachConv(n.layers, func(c *Conv) { c.packed.Store(nil) })
}

// Split partitions the network after layer k (layers [0,k] front, (k,end]
// rear), returning two networks that together compute the same function:
// front.Forward is the paper's inference_front, rear the inference_rear.
// k must leave at least the input layer in front and one layer in the rear.
// The rear network is given a fresh input layer matching the feature shape.
func (n *Network) Split(k int) (front, rear *Network, err error) {
	if k < 0 || k >= len(n.layers)-1 {
		return nil, nil, fmt.Errorf("%w: k=%d with %d layers", ErrBadSplit, k, len(n.layers))
	}
	frontLayers := n.layers[:k+1]
	front, err = NewNetwork(n.name+"_front", frontLayers...)
	if err != nil {
		return nil, nil, err
	}
	featShape := n.InputShape()
	for _, l := range frontLayers {
		featShape, err = l.OutputShape(featShape)
		if err != nil {
			return nil, nil, err
		}
	}
	rearInput, err := NewInput("feature_input", featShape...)
	if err != nil {
		// Post-split feature data can be a flat vector; in that case wrap
		// it as [C,1,1] so the rear input layer accepts it.
		if len(featShape) == 1 {
			rearInput, err = NewInput("feature_input", featShape[0], 1, 1)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("nn: split %q at %d: %w", n.name, k, err)
		}
	}
	rearLayers := make([]Layer, 0, len(n.layers)-k)
	rearLayers = append(rearLayers, rearInput)
	rearLayers = append(rearLayers, n.layers[k+1:]...)
	rear, err = NewNetwork(n.name+"_rear", rearLayers...)
	if err != nil {
		return nil, nil, err
	}
	return front, rear, nil
}

// PartitionPoint is a candidate offloading point: execute layers [0,Index]
// on the client and the rest on the server. Label follows the paper's Fig 8
// naming (Input, 1st_conv, 1st_pool, ...).
type PartitionPoint struct {
	Index int
	Label string
	// FeatureBytes is the float32 size of the data crossing the split.
	FeatureBytes int64
}

// PartitionPoints enumerates the candidate offloading points the paper
// sweeps in Fig 8: the input layer plus every conv, pool, and inception
// boundary. The final layer is excluded (offloading nothing is the Client
// configuration, covered separately).
func (n *Network) PartitionPoints() ([]PartitionPoint, error) {
	infos, err := n.Describe()
	if err != nil {
		return nil, err
	}
	counts := map[LayerType]int{}
	pts := make([]PartitionPoint, 0, len(infos))
	for _, li := range infos[:len(infos)-1] {
		switch li.Type {
		case TypeInput:
			pts = append(pts, PartitionPoint{Index: li.Index, Label: "Input", FeatureBytes: li.OutputBytes})
		case TypeConv, TypePool, TypeInception:
			counts[li.Type]++
			pts = append(pts, PartitionPoint{
				Index:        li.Index,
				Label:        fmt.Sprintf("%s_%s", ordinal(counts[li.Type]), li.Type),
				FeatureBytes: li.OutputBytes,
			})
		}
	}
	return pts, nil
}

func ordinal(i int) string {
	switch i {
	case 1:
		return "1st"
	case 2:
		return "2nd"
	case 3:
		return "3rd"
	default:
		return fmt.Sprintf("%dth", i)
	}
}

// InitWeights fills every parameter tensor deterministically from seed using
// a He-style fan-in scaling. Deterministic synthetic weights stand in for
// the paper's pre-trained Caffe models: the experiments depend on parameter
// counts and feature sizes, not accuracy (see DESIGN.md §1).
func (n *Network) InitWeights(seed uint64) {
	rng := seed | 1
	next := func() float32 {
		// xorshift64* — deterministic across platforms, no math/rand
		// global state.
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		v := rng * 2685821657736338717
		// Map the top 24 bits to [-1, 1).
		return float32(int32(v>>40)-1<<23) / (1 << 23)
	}
	for _, l := range n.layers {
		for _, p := range l.Params() {
			fanIn := p.Len()
			if s := p.Shape(); len(s) > 1 {
				fanIn = tensor.Volume(s[1:])
			}
			scale := float32(math.Sqrt(2 / float64(fanIn)))
			d := p.Data()
			for i := range d {
				d[i] = next() * scale
			}
		}
	}
	n.weightsChanged()
}
