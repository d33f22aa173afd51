package nn

import (
	"fmt"
	"sync"

	"websnap/internal/tensor"
)

// Inception is GoogLeNet's inception module: several branches of layers run
// in parallel on the same input, and their outputs are concatenated along
// the channel dimension into a single output vector (paper §II.B).
//
// Modeling the module as one composite layer keeps the network a simple
// series of layer executions, which is exactly the view the paper's
// partial-inference partitioning takes.
type Inception struct {
	name     string
	branches [][]Layer

	// planMu guards plans, the per-input-shape compiled branch programs.
	// Compilation is idempotent (same layers, same shapes), so concurrent
	// first uses at worst compile twice and keep one.
	planMu sync.RWMutex
	plans  map[[3]int]*incPlan
}

// incPlan is an inception module compiled for one input shape: each
// branch is a standalone sub-program writing a channel window of the
// module's output.
type incPlan struct {
	branches []incBranch
}

type incBranch struct {
	prog     *program
	off      int // float32 offset of this branch's window in the output
	outShape []int
}

var _ Layer = (*Inception)(nil)

// NewInception constructs an inception module from its branches. Every
// branch must contain at least one layer, and every branch output must have
// the same spatial dimensions so the channel concat is well-defined.
func NewInception(name string, branches ...[]Layer) (*Inception, error) {
	if len(branches) == 0 {
		return nil, fmt.Errorf("nn: inception %q: no branches", name)
	}
	for i, b := range branches {
		if len(b) == 0 {
			return nil, fmt.Errorf("nn: inception %q: branch %d is empty", name, i)
		}
	}
	return &Inception{name: name, branches: branches}, nil
}

// Name implements Layer.
func (l *Inception) Name() string { return l.name }

// Type implements Layer.
func (l *Inception) Type() LayerType { return TypeInception }

// Branches returns the module's branches. The returned slices are the live
// internals; callers must not mutate them.
func (l *Inception) Branches() [][]Layer { return l.branches }

func (l *Inception) branchShape(branch []Layer, in []int) ([]int, error) {
	cur := in
	for _, lay := range branch {
		next, err := lay.OutputShape(cur)
		if err != nil {
			return nil, fmt.Errorf("inception %q/%s: %w", l.name, lay.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// OutputShape implements Layer.
func (l *Inception) OutputShape(in []int) ([]int, error) {
	var oh, ow, totalC int
	for i, b := range l.branches {
		s, err := l.branchShape(b, in)
		if err != nil {
			return nil, err
		}
		if len(s) != 3 {
			return nil, fmt.Errorf("inception %q: branch %d output %v is not [C H W]: %w",
				l.name, i, s, ErrBadShape)
		}
		if i == 0 {
			oh, ow = s[1], s[2]
		} else if s[1] != oh || s[2] != ow {
			return nil, fmt.Errorf("inception %q: branch %d spatial %dx%d != %dx%d: %w",
				l.name, i, s[1], s[2], oh, ow, ErrBadShape)
		}
		totalC += s[0]
	}
	return []int{totalC, oh, ow}, nil
}

// planFor returns the module compiled for a [c,h,w] input, compiling and
// caching branch sub-programs on first use. Branch programs write their
// output directly into the module's channel-concatenated output window,
// so no per-branch result tensor or concat copy exists at run time.
func (l *Inception) planFor(c, h, w int) (*incPlan, error) {
	key := [3]int{c, h, w}
	l.planMu.RLock()
	ip := l.plans[key]
	l.planMu.RUnlock()
	if ip != nil {
		return ip, nil
	}
	in := []int{c, h, w}
	ip = &incPlan{branches: make([]incBranch, len(l.branches))}
	chOff := 0
	plane := 0
	for i, b := range l.branches {
		prog, err := compileProgram(b, in, true)
		if err != nil {
			return nil, fmt.Errorf("inception %q: %w", l.name, err)
		}
		if len(prog.outShape) != 3 {
			return nil, fmt.Errorf("inception %q: branch %d output %v is not [C H W]: %w",
				l.name, i, prog.outShape, ErrBadShape)
		}
		plane = prog.outShape[1] * prog.outShape[2]
		ip.branches[i] = incBranch{prog: prog, off: chOff * plane, outShape: prog.outShape}
		chOff += prog.outShape[0]
	}
	l.planMu.Lock()
	if l.plans == nil {
		l.plans = make(map[[3]int]*incPlan)
	}
	if exist := l.plans[key]; exist != nil {
		ip = exist
	} else {
		l.plans[key] = ip
	}
	l.planMu.Unlock()
	return ip, nil
}

// Traits implements Layer, compiling the branch sub-programs as a side
// effect so plan construction surfaces branch shape errors eagerly.
func (l *Inception) Traits(in []int) (StepTraits, error) {
	c, h, w, err := shapeCHW(in)
	if err != nil {
		return StepTraits{}, fmt.Errorf("inception %q: %w", l.name, err)
	}
	if _, err := l.planFor(c, h, w); err != nil {
		return StepTraits{}, err
	}
	return StepTraits{Algo: "concat"}, nil
}

// ForwardCtx implements Layer: each branch sub-program runs in its own
// cached child context and writes straight into its channel window of
// out.
func (l *Inception) ForwardCtx(ctx *ExecContext, in, out *tensor.Tensor) error {
	ip, err := l.planFor(in.Dim(0), in.Dim(1), in.Dim(2))
	if err != nil {
		return err
	}
	for i := range ip.branches {
		br := &ip.branches[i]
		sub := ctx.sub(br.prog)
		view, err := sub.outView(out, br.off, br.outShape)
		if err != nil {
			return fmt.Errorf("inception %q: %w", l.name, err)
		}
		if err := br.prog.run(sub, in, view, nil); err != nil {
			return fmt.Errorf("inception %q: %w", l.name, err)
		}
	}
	return nil
}

// FLOPs implements Layer: the sum over all branch layers.
func (l *Inception) FLOPs(in []int) (int64, error) {
	var total int64
	for _, b := range l.branches {
		cur := in
		for _, lay := range b {
			f, err := lay.FLOPs(cur)
			if err != nil {
				return 0, fmt.Errorf("inception %q/%s: %w", l.name, lay.Name(), err)
			}
			total += f
			cur, err = lay.OutputShape(cur)
			if err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// ParamCount implements Layer.
func (l *Inception) ParamCount() int64 {
	var total int64
	for _, b := range l.branches {
		for _, lay := range b {
			total += lay.ParamCount()
		}
	}
	return total
}

// Params implements Layer: branch-major, layer order within branch.
func (l *Inception) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, b := range l.branches {
		for _, lay := range b {
			ps = append(ps, lay.Params()...)
		}
	}
	return ps
}
