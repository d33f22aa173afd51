package nn

import (
	"fmt"
	"sync"
	"time"

	"websnap/internal/tensor"
)

// This file implements the planned execution engine. A Network + input
// shape is compiled once into an ExecPlan: per-layer output shapes,
// scratch sizes, and kernel names are derived at compile time, identity layers (input validation, inference
// dropout) are elided, and every remaining step is assigned a buffer in a
// ping-pong arena so a steady-state forward pass performs no per-layer
// allocation. A float32 compile also folds each ReLU that directly follows
// a convolution into that convolution's kernel, and packs every
// convolution's weights into GEMM panels — once per Conv, on the layer, so
// full plans, range plans and inception sub-programs share the copy until
// the weights are rewritten. Plans are immutable after compilation and safe
// for concurrent use; mutable per-call state lives in pooled ExecContexts.

// StepTraits reports how a layer behaves as one step of a compiled plan.
// The plan compiler uses it to assign buffers and size the scratch arena.
type StepTraits struct {
	// InPlace means ForwardCtx tolerates out aliasing in (same backing
	// array), letting the plan run the step without a second buffer.
	InPlace bool
	// Identity means the step computes nothing at inference time
	// (out = in); the plan elides it entirely.
	Identity bool
	// ScratchFloats is the ExecContext scratch the step requests per
	// call for this input shape.
	ScratchFloats int
	// Algo names the kernel the step will use ("direct-packed", "gemv",
	// ...) for plan introspection and benchmarks.
	Algo string
}

// Buffer codes used by compiled plan steps. A step reads src and writes
// dst; src==dst marks an in-place step.
const (
	bufInput  int8 = -1 // the caller's input tensor (never written)
	bufPing   int8 = 0  // pooled intermediate A
	bufPong   int8 = 1  // pooled intermediate B
	bufOutput int8 = 2  // the caller's result tensor
)

// progStep is one compiled layer execution.
type progStep struct {
	layer    Layer
	inShape  []int
	outShape []int
	outVol   int
	traits   StepTraits
	src, dst int8
	skip     bool       // identity or fused step, elided at run time
	relu     bool       // a Conv whose kernel also applies the next step's ReLU
	fused    bool       // a ReLU the preceding Conv's kernel applies
	quant    *quantStep // int8 kernel, set only in quantized plans
}

// program is the compiled form shared by ExecPlan and inception branch
// sub-plans. It is immutable after compileProgram returns.
type program struct {
	steps      []progStep
	inShape    []int
	outShape   []int
	inVol      int
	outVol     int
	bufVol     [2]int // required float32 capacity of ping/pong buffers
	scratchVol int    // largest per-step scratch request
	wroteOut   bool   // some step writes the result tensor directly
}

// compileProgram walks the layer chain once, deriving every shape, trait,
// and buffer assignment.
//
// Buffer assignment: intermediates ping-pong between two pooled buffers;
// the last step that must materialize a new tensor writes straight into
// the caller's result, and the trailing run of in-place steps (ReLU,
// softmax, ...) then mutates the result in place. An in-place step that
// would otherwise read the caller's input is redirected into a buffer so
// inputs are never mutated. Identity steps are elided.
//
// With fuseReLU, a ReLU that runs in place on the output of the Conv right
// before it is elided too and the Conv step marked to clamp in its kernel:
// the output tile is written once instead of written, re-read and
// rewritten. Float32 programs fuse; int8 programs, whose convolutions
// dequantize in a pass of their own, keep the separate step.
func compileProgram(layers []Layer, inShape []int, fuseReLU bool) (*program, error) {
	p := &program{
		steps:   make([]progStep, len(layers)),
		inShape: append([]int(nil), inShape...),
	}
	cur := p.inShape
	for i, l := range layers {
		out, err := l.OutputShape(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %q: %w", l.Name(), err)
		}
		tr, err := l.Traits(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %q: %w", l.Name(), err)
		}
		p.steps[i] = progStep{
			layer:    l,
			inShape:  cur,
			outShape: out,
			outVol:   tensor.Volume(out),
			traits:   tr,
		}
		cur = out
	}
	p.outShape = cur
	p.inVol = tensor.Volume(p.inShape)
	p.outVol = tensor.Volume(p.outShape)

	// lastMat is the last step that cannot run in place: it materializes
	// directly into the result tensor, and everything after it operates
	// on the result.
	lastMat := -1
	for i := range p.steps {
		if !p.steps[i].traits.Identity && !p.steps[i].traits.InPlace {
			lastMat = i
		}
	}
	buf := bufInput
	for i := range p.steps {
		st := &p.steps[i]
		switch {
		case st.traits.Identity:
			st.skip = true
			st.src, st.dst = buf, buf
		case i >= lastMat:
			// The materialization point, or the in-place tail behind
			// it (when lastMat == -1 the first compute step lands
			// here and writes the result reading the raw input).
			st.src, st.dst = buf, bufOutput
			buf = bufOutput
		case st.traits.InPlace && buf != bufInput:
			st.src, st.dst = buf, buf
		default:
			// Needs a fresh destination: either a true materializing
			// step mid-chain, or an in-place-capable step that must
			// not mutate the caller's input.
			nxt := bufPing
			if buf == bufPing {
				nxt = bufPong
			}
			st.src, st.dst = buf, nxt
			buf = nxt
		}
	}
	for i := 1; fuseReLU && i < len(p.steps); i++ {
		conv, st := &p.steps[i-1], &p.steps[i]
		_, isConv := conv.layer.(*Conv)
		_, isReLU := st.layer.(*ReLU)
		if isConv && isReLU && st.src == conv.dst && st.dst == conv.dst {
			conv.relu = true
			conv.traits.Algo += "+relu"
			st.skip, st.fused = true, true
		}
	}
	for i := range p.steps {
		st := &p.steps[i]
		if st.traits.ScratchFloats > p.scratchVol {
			p.scratchVol = st.traits.ScratchFloats
		}
		if st.skip {
			continue
		}
		if st.dst == bufPing || st.dst == bufPong {
			if st.outVol > p.bufVol[st.dst] {
				p.bufVol[st.dst] = st.outVol
			}
		}
		if st.dst == bufOutput {
			p.wroteOut = true
		}
	}
	return p, nil
}

// runStep executes step i. in and out are the caller's input and result
// tensors; intermediates come from the context's arena.
func (p *program) runStep(ctx *ExecContext, i int, in, out *tensor.Tensor) error {
	st := &p.steps[i]
	if st.skip {
		return nil
	}
	src, err := ctx.bind(i, 0, st.src, st.inShape, in, out)
	if err != nil {
		return fmt.Errorf("layer %q: %w", st.layer.Name(), err)
	}
	dst, err := ctx.bind(i, 1, st.dst, st.outShape, in, out)
	if err != nil {
		return fmt.Errorf("layer %q: %w", st.layer.Name(), err)
	}
	ctx.soff = 0
	if q := st.quant; q != nil {
		if ctx.rec != nil && q.inc == nil {
			if mx := tensor.MaxAbs(src.Data()); mx > ctx.rec[st] {
				ctx.rec[st] = mx
			}
		}
		if err := q.forward(ctx, src, dst); err != nil {
			return fmt.Errorf("layer %q: %w", st.layer.Name(), err)
		}
		return nil
	}
	if st.relu {
		st.layer.(*Conv).forward(src, dst, true)
		return nil
	}
	if err := st.layer.ForwardCtx(ctx, src, dst); err != nil {
		return fmt.Errorf("layer %q: %w", st.layer.Name(), err)
	}
	return nil
}

// prepack packs the weights of every convolution the program runs,
// inception branches included. Only float32 plan compiles call it, so a
// network that only ever runs int8 never holds a float32 packed copy.
func (p *program) prepack() {
	for i := range p.steps {
		st := &p.steps[i]
		switch l := st.layer.(type) {
		case *Conv:
			l.prepack()
		case *Inception:
			// Traits compiled and cached the module for this shape, so this
			// is a lookup and cannot fail.
			if ip, err := l.planFor(st.inShape[0], st.inShape[1], st.inShape[2]); err == nil {
				for _, br := range ip.branches {
					br.prog.prepack()
				}
			}
		}
	}
}

// run executes the whole program. When times is non-nil it must have
// len(p.steps) entries and receives per-step wall times (elided steps
// record zero) — the costmodel calibrates through this hook so predicted
// layer times reflect the real kernels.
func (p *program) run(ctx *ExecContext, in, out *tensor.Tensor, times []time.Duration) error {
	for i := range p.steps {
		if times == nil {
			if err := p.runStep(ctx, i, in, out); err != nil {
				return err
			}
			continue
		}
		start := time.Now()
		if err := p.runStep(ctx, i, in, out); err != nil {
			return err
		}
		times[i] = time.Since(start)
	}
	if !p.wroteOut {
		// Every step was elided (e.g. a pure input+dropout range): the
		// result is a copy of the input.
		copy(out.Data(), in.Data())
	}
	return nil
}

// ExecContext carries the mutable per-call state of plan execution: the
// ping-pong intermediate buffers, the step scratch arena, cached tensor
// headers, and per-branch sub-contexts for inception modules. Contexts
// are pooled by ExecPlan and must only be used by one goroutine at a
// time; the buffers come from the tensor package's sync.Pool-backed
// arena, so steady-state inference allocates nothing.
type ExecContext struct {
	bufs    [2][]float32
	io      [][2]*tensor.Tensor // cached headers per (step, src/dst)
	scratch []float32
	soff    int
	subs    map[*program]*ExecContext
	// Cached output view for inception branch contexts: the channel
	// window of the parent's output this branch writes into.
	viewOf *tensor.Tensor
	view   *tensor.Tensor
	// rec, when non-nil, records max|input| per step — the calibration
	// pass of quantized plan compilation. Inherited by sub-contexts so
	// inception branch steps are observed too.
	rec map[*progStep]float32
}

// newExecContext sizes a context for prog. A nil prog yields an empty
// context that grows on demand.
func newExecContext(prog *program) *ExecContext {
	c := &ExecContext{}
	if prog != nil {
		c.bufs[0] = tensor.GetBuf(prog.bufVol[0])
		c.bufs[1] = tensor.GetBuf(prog.bufVol[1])
		c.scratch = tensor.GetBuf(prog.scratchVol)
		c.io = make([][2]*tensor.Tensor, len(prog.steps))
	}
	return c
}

// bind resolves a step's buffer code to a tensor, caching headers for
// pooled buffers so repeat executions allocate nothing.
func (c *ExecContext) bind(step, role int, code int8, shape []int, in, out *tensor.Tensor) (*tensor.Tensor, error) {
	switch code {
	case bufInput:
		return in, nil
	case bufOutput:
		return out, nil
	}
	if t := c.io[step][role]; t != nil {
		return t, nil
	}
	t, err := tensor.FromSlice(c.bufs[code][:tensor.Volume(shape)], shape...)
	if err != nil {
		return nil, err
	}
	c.io[step][role] = t
	return t, nil
}

// Scratch returns an n-float scratch slice from the context's arena.
// The slice is valid only until the current plan step returns and its
// contents are unspecified. Plan contexts are pre-sized at compile time;
// a bare ExecContext grows on first use.
func (c *ExecContext) Scratch(n int) []float32 {
	if c.soff+n > len(c.scratch) {
		if c.soff == 0 {
			tensor.PutBuf(c.scratch)
			c.scratch = tensor.GetBuf(n)
		} else {
			// Mid-step growth: earlier carve-outs keep their backing
			// array, this request gets a fresh one. Correct, just not
			// allocation-free; plans never hit this path.
			return make([]float32, n)
		}
	}
	s := c.scratch[c.soff : c.soff+n]
	c.soff += n
	return s
}

// sub returns the child context for an inception branch program, creating
// and caching it on first use.
func (c *ExecContext) sub(p *program) *ExecContext {
	if s := c.subs[p]; s != nil {
		return s
	}
	if c.subs == nil {
		c.subs = make(map[*program]*ExecContext)
	}
	s := newExecContext(p)
	s.rec = c.rec
	c.subs[p] = s
	return s
}

// free returns the context's pooled buffers, recursively through
// sub-contexts. Only one-shot contexts (plan calibration) call it; pooled
// inference contexts keep their buffers for reuse.
func (c *ExecContext) free() {
	tensor.PutBuf(c.bufs[0])
	tensor.PutBuf(c.bufs[1])
	tensor.PutBuf(c.scratch)
	c.bufs[0], c.bufs[1], c.scratch = nil, nil, nil
	for _, s := range c.subs {
		s.free()
	}
}

// outView returns a tensor viewing out's floats [off, off+volume(shape)),
// caching the header while the parent output tensor is stable (pooled
// intermediate buffers keep the same header across runs).
func (c *ExecContext) outView(out *tensor.Tensor, off int, shape []int) (*tensor.Tensor, error) {
	if c.viewOf == out {
		return c.view, nil
	}
	v, err := tensor.FromSlice(out.Data()[off:off+tensor.Volume(shape)], shape...)
	if err != nil {
		return nil, err
	}
	c.viewOf, c.view = out, v
	return v, nil
}

// ExecPlan is a Network (or layer range) compiled for one input shape.
// Plans are immutable and safe for concurrent use: every Forward call
// draws a pooled ExecContext, so the scheduler's workers can share one
// cached plan.
type ExecPlan struct {
	netName string
	prog    *program
	prec    Precision
	quant   *QuantInfo // non-nil iff prec == PrecInt8
	ctxs    sync.Pool
}

// newExecPlan compiles layers for inShape at the given precision. An
// int8 plan additionally quantizes and calibrates during compilation, so
// the returned plan is immutable and concurrency-safe either way.
func newExecPlan(netName string, layers []Layer, inShape []int, prec Precision) (*ExecPlan, error) {
	prog, err := compileProgram(layers, inShape, prec != PrecInt8)
	if err != nil {
		return nil, err
	}
	p := &ExecPlan{netName: netName, prog: prog, prec: prec}
	if prec == PrecInt8 {
		bound, err := quantizeProgram(prog)
		if err != nil {
			return nil, err
		}
		p.quant = &QuantInfo{
			Precision: PrecInt8,
			ErrBound:  bound,
			Steps:     collectQuantSteps(prog, nil),
		}
	} else {
		prog.prepack()
	}
	return p, nil
}

// Precision returns the plan's compute precision.
func (p *ExecPlan) Precision() Precision {
	if p.prec == "" {
		return PrecFloat32
	}
	return p.prec
}

// Quant returns the quantization metadata of an int8 plan — calibrated
// end-to-end error bound and per-step scales — or nil for float32 plans.
func (p *ExecPlan) Quant() *QuantInfo { return p.quant }

// InputShape returns a copy of the plan's expected input shape.
func (p *ExecPlan) InputShape() []int { return append([]int(nil), p.prog.inShape...) }

// OutputShape returns a copy of the plan's output shape.
func (p *ExecPlan) OutputShape() []int { return append([]int(nil), p.prog.outShape...) }

// NumSteps returns the number of compiled steps (one per layer in the
// compiled range, including elided identity steps).
func (p *ExecPlan) NumSteps() int { return len(p.prog.steps) }

// PlanStep describes one compiled step for introspection (costmodel
// calibration, benchmarks, tests).
type PlanStep struct {
	Index    int
	Name     string
	Type     LayerType
	InShape  []int
	OutShape []int
	InPlace  bool
	// Elided steps run nothing of their own: identity steps, and Fused ones.
	Elided bool
	// Fused marks an elided step whose work the preceding step's kernel
	// does (a ReLU folded into the convolution before it, whose Algo then
	// ends in "+relu").
	Fused         bool
	Algo          string
	ScratchFloats int
}

// Steps returns a description of every compiled step.
func (p *ExecPlan) Steps() []PlanStep {
	out := make([]PlanStep, len(p.prog.steps))
	for i := range p.prog.steps {
		st := &p.prog.steps[i]
		out[i] = PlanStep{
			Index:         i,
			Name:          st.layer.Name(),
			Type:          st.layer.Type(),
			InShape:       append([]int(nil), st.inShape...),
			OutShape:      append([]int(nil), st.outShape...),
			InPlace:       st.src == st.dst && !st.skip,
			Elided:        st.skip,
			Fused:         st.fused,
			Algo:          st.traits.Algo,
			ScratchFloats: st.traits.ScratchFloats,
		}
	}
	return out
}

func (p *ExecPlan) acquire() *ExecContext {
	if v := p.ctxs.Get(); v != nil {
		return v.(*ExecContext)
	}
	return newExecContext(p.prog)
}

func (p *ExecPlan) release(c *ExecContext) { p.ctxs.Put(c) }

func (p *ExecPlan) checkInput(in *tensor.Tensor) error {
	if in.Rank() != len(p.prog.inShape) {
		return fmt.Errorf("network %q: %w: got rank %d, want %v",
			p.netName, ErrBadShape, in.Rank(), p.prog.inShape)
	}
	for i, d := range p.prog.inShape {
		if in.Dim(i) != d {
			return fmt.Errorf("network %q: %w: got dim %d = %d, want %v",
				p.netName, ErrBadShape, i, in.Dim(i), p.prog.inShape)
		}
	}
	return nil
}

// Forward executes the plan on in, returning a freshly allocated output
// tensor. The input is never mutated.
func (p *ExecPlan) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	out, _, err := p.forward(in, nil)
	return out, err
}

// ForwardTimed is Forward plus per-step wall times: times[i] is the wall
// time of step i (zero for elided steps). times must have NumSteps()
// entries. The costmodel profiles devices through this hook.
func (p *ExecPlan) ForwardTimed(in *tensor.Tensor, times []time.Duration) (*tensor.Tensor, error) {
	if len(times) != len(p.prog.steps) {
		return nil, fmt.Errorf("network %q: ForwardTimed: %d time slots for %d steps",
			p.netName, len(times), len(p.prog.steps))
	}
	out, _, err := p.forward(in, times)
	return out, err
}

func (p *ExecPlan) forward(in *tensor.Tensor, times []time.Duration) (*tensor.Tensor, *ExecContext, error) {
	if err := p.checkInput(in); err != nil {
		return nil, nil, err
	}
	out, err := tensor.New(p.prog.outShape...)
	if err != nil {
		return nil, nil, err
	}
	ctx := p.acquire()
	err = p.prog.run(ctx, in, out, times)
	p.release(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("network %q: %w", p.netName, err)
	}
	return out, nil, nil
}
