package nn

import (
	"fmt"

	"websnap/internal/tensor"
)

// Quantized inference (the catalog's int8 quality tier).
//
// A plan compiled with PrecInt8 executes its Conv and FC steps in int8:
// weights are quantized per output channel with symmetric scales
// (zero-point 0) at plan-compile time, activations per tensor at each
// layer entry with scales calibrated from a deterministic synthetic
// batch, and products accumulate in int32 — exact integer arithmetic, so
// the quantized path is bit-identical across kernels, blocking, and
// worker counts by construction. Every step dequantizes back to float32
// on the way out, so layer boundaries — and therefore every partition cut
// point — carry ordinary float32 tensors and partial inference can split
// a quantized plan anywhere without protocol changes.
//
// Quantization state is owned by the compiled plan, never by the shared
// Layer values: Split() shares layer pointers between the full, front,
// and rear networks, and plan-owned state keeps each network's
// calibration independent of which plan compiled first. For the same
// reason a quantized Inception step compiles private branch programs
// instead of reusing the module's shared float32 branch cache.

// Precision selects a plan's compute precision: the model quality knob
// the partition policy and the webapp catalog expose.
type Precision string

// Supported precisions.
const (
	PrecFloat32 Precision = "float32"
	PrecInt8    Precision = "int8"
)

// ParsePrecision maps user-facing spellings of the quality tier onto a
// Precision. The empty string means the float32 default.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float32", "fp32", "full":
		return PrecFloat32, nil
	case "int8", "quantized", "q8":
		return PrecInt8, nil
	}
	return "", fmt.Errorf("nn: unknown precision %q (want float32 or int8)", s)
}

// Valid reports whether p is a supported precision.
func (p Precision) Valid() bool { return p == PrecFloat32 || p == PrecInt8 }

// calibBatch is the number of synthetic inputs a plan's calibration pass
// runs. Activation ranges stabilize after a handful of samples because
// the inputs share one distribution; more samples only slow plan compile.
const calibBatch = 4

// quantSafety multiplies the worst error observed on the calibration
// batch into the end-to-end bound the plan advertises, covering inputs
// the calibration batch did not see.
const quantSafety = 8

// quantStep is the plan-owned quantized kernel attached to one compiled
// step. Exactly one of conv, fc, or inc is set. Until armed (calibration
// scales applied) forward falls through to the float32 layer kernel,
// which is how the calibration passes themselves run.
type quantStep struct {
	armed bool

	conv *Conv
	fc   *FC

	pa       *tensor.PackedAI8 // conv weights, quantized and prepacked
	wq       []int8            // fc weights, quantized flat
	wScale   []float32         // per-output-channel weight scales
	actScale float32           // input activation scale (calibrated)
	deq      []float32         // wScale[o] * actScale
	geom     tensor.ConvGeom
	inVol    int
	bound    float32 // analytic per-step output error bound

	inc      *Inception
	branches []incBranch // private branch programs (plan-owned)
}

// forward executes the step: quantize input, int8 GEMM with int32
// accumulation, dequantize into the float32 destination.
func (q *quantStep) forward(ctx *ExecContext, in, out *tensor.Tensor) error {
	if q.inc != nil {
		for i := range q.branches {
			br := &q.branches[i]
			sub := ctx.sub(br.prog)
			view, err := sub.outView(out, br.off, br.outShape)
			if err != nil {
				return fmt.Errorf("inception %q: %w", q.inc.name, err)
			}
			if err := br.prog.run(sub, in, view, nil); err != nil {
				return fmt.Errorf("inception %q: %w", q.inc.name, err)
			}
		}
		return nil
	}
	if !q.armed {
		if q.conv != nil {
			return q.conv.ForwardCtx(ctx, in, out)
		}
		return q.fc.ForwardCtx(ctx, in, out)
	}
	// Calibrated activation scale, with a dynamic range fallback: an
	// input hotter than anything the calibration batch saw (a rear-net
	// plan fed real cut-point features, say) widens the scale to fit
	// instead of clamping, so quantization error stays bounded by the
	// rounding terms for every input. The fallback is deterministic —
	// MaxAbs of the same input always picks the same scale.
	scale, deq := q.actScale, q.deq
	var tmp []float32
	if am := tensor.MaxAbs(in.Data()); am > scale*127 {
		scale = am / 127
		tmp = tensor.GetBuf(len(q.deq))
		for o, ws := range q.wScale {
			tmp[o] = ws * scale
		}
		deq = tmp
	}
	xq := tensor.GetBufI8(q.inVol)
	tensor.Quantize(xq, in.Data(), scale)
	if q.conv != nil {
		tensor.GemmConvI8(tensor.AsInt32(out.Data()), q.pa, xq, q.geom)
		tensor.DequantizeRows(out.Data(), deq, q.conv.bias.Data(), q.conv.outC, q.geom.Cols())
	} else {
		tensor.GemvI8(out.Data(), q.wq, xq, deq, q.fc.bias.Data(), q.fc.out, q.fc.in)
	}
	tensor.PutBufI8(xq)
	if tmp != nil {
		tensor.PutBuf(tmp)
	}
	return nil
}

// attachQuant walks a compiled program and hangs an (unarmed) quantStep
// on every quantizable step. Inception steps get freshly compiled,
// plan-owned branch programs, recursively attached.
func attachQuant(p *program) error {
	for i := range p.steps {
		st := &p.steps[i]
		if st.skip {
			continue
		}
		switch l := st.layer.(type) {
		case *Conv:
			oh, ow := st.outShape[1], st.outShape[2]
			st.quant = &quantStep{
				conv:  l,
				geom:  l.geom(st.inShape[1], st.inShape[2], oh, ow),
				inVol: tensor.Volume(st.inShape),
			}
		case *FC:
			st.quant = &quantStep{fc: l, inVol: l.in}
		case *Inception:
			qs := &quantStep{inc: l}
			chOff, plane := 0, 0
			for bi, b := range l.branches {
				prog, err := compileProgram(b, st.inShape, false)
				if err != nil {
					return fmt.Errorf("inception %q branch %d: %w", l.name, bi, err)
				}
				if err := attachQuant(prog); err != nil {
					return err
				}
				plane = prog.outShape[1] * prog.outShape[2]
				qs.branches = append(qs.branches, incBranch{prog: prog, off: chOff * plane, outShape: prog.outShape})
				chOff += prog.outShape[0]
			}
			st.quant = qs
		}
	}
	return nil
}

// armQuant applies the calibrated activation scales: per-channel weight
// quantization, weight prepacking, dequant scale tables, and the analytic
// per-step error bound. rec holds max|input| per step from the
// calibration passes.
func armQuant(p *program, rec map[*progStep]float32) {
	for i := range p.steps {
		st := &p.steps[i]
		q := st.quant
		if q == nil {
			continue
		}
		if q.inc != nil {
			for _, br := range q.branches {
				armQuant(br.prog, rec)
			}
			continue
		}
		q.actScale = rec[st] / 127
		var w []float32
		var m, k int
		if q.conv != nil {
			w = q.conv.weight.Data()
			m, k = q.conv.outC, q.conv.inC*q.conv.k*q.conv.k
		} else {
			w = q.fc.weight.Data()
			m, k = q.fc.out, q.fc.in
		}
		wq := make([]int8, m*k)
		q.wScale = make([]float32, m)
		q.deq = make([]float32, m)
		for o := 0; o < m; o++ {
			row := w[o*k : (o+1)*k]
			ws := tensor.MaxAbs(row) / 127
			q.wScale[o] = ws
			if ws != 0 {
				tensor.Quantize(wq[o*k:(o+1)*k], row, ws)
			}
			q.deq[o] = ws * q.actScale
			// Analytic output bound for channel o: each of the k products
			// w·x carries at most |w|·aS/2 (activation rounding) +
			// |x|max·wS/2 (weight rounding) + wS·aS/4 (cross term) of
			// error, with |x|max = 127·aS the calibrated input range.
			var sumAbsW float32
			for _, v := range row {
				if v < 0 {
					v = -v
				}
				sumAbsW += v
			}
			b := sumAbsW*q.actScale/2 + float32(k)*ws*q.actScale*(127.0/2+0.25)
			if b > q.bound {
				q.bound = b
			}
		}
		if q.conv != nil {
			q.pa = tensor.PackAI8(wq, m, k, k)
		} else {
			q.wq = wq
		}
		q.armed = true
	}
}

// calibInputs builds the deterministic synthetic calibration batch:
// xorshift64*-filled tensors in [-1, 1), the same distribution
// InitWeights assumes, seeded purely by shape so every compile of the
// same plan calibrates identically on every machine.
func calibInputs(shape []int) []*tensor.Tensor {
	vol := tensor.Volume(shape)
	ins := make([]*tensor.Tensor, calibBatch)
	rng := uint64(vol)*2654435761 + 99991
	for i := range ins {
		t, err := tensor.New(shape...)
		if err != nil {
			panic(err) // shape already validated by compileProgram
		}
		d := t.Data()
		for j := range d {
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			v := rng * 2685821657736338717
			d[j] = float32(int32(v>>40)-1<<23) / (1 << 23)
		}
		ins[i] = t
	}
	return ins
}

// quantizeProgram runs the full calibration pipeline on a compiled
// program: attach quant steps, record activation ranges over float32
// calibration passes, arm the quantized kernels, then measure the
// end-to-end error of the armed program against the float32 reference on
// the same batch. The returned bound is that worst observed error times
// quantSafety.
func quantizeProgram(p *program) (float32, error) {
	if err := attachQuant(p); err != nil {
		return 0, err
	}
	ins := calibInputs(p.inShape)
	rec := make(map[*progStep]float32)
	refs := make([]*tensor.Tensor, len(ins))
	ctx := newExecContext(p)
	ctx.rec = rec
	for i, in := range ins {
		out, err := tensor.New(p.outShape...)
		if err != nil {
			return 0, err
		}
		if err := p.run(ctx, in, out, nil); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		refs[i] = out
	}
	ctx.free()
	armQuant(p, rec)
	var maxErr float32
	qctx := newExecContext(p)
	for i, in := range ins {
		out, err := tensor.New(p.outShape...)
		if err != nil {
			return 0, err
		}
		if err := p.run(qctx, in, out, nil); err != nil {
			return 0, fmt.Errorf("calibration (int8 pass): %w", err)
		}
		ref := refs[i].Data()
		for j, v := range out.Data() {
			d := v - ref[j]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	qctx.free()
	return maxErr*quantSafety + 1e-6, nil
}

// QuantStepInfo describes one quantized step for introspection.
type QuantStepInfo struct {
	Name     string  `json:"name"`
	ActScale float32 `json:"actScale"`
	// Bound is the analytic worst-case output error of this step alone,
	// valid while its input stays within the calibrated range.
	Bound float32 `json:"bound"`
}

// QuantInfo describes a quantized plan: the calibrated end-to-end error
// bound (what the chaos soak and the error-bound tests assert against)
// and the per-step scales and bounds.
type QuantInfo struct {
	Precision Precision       `json:"precision"`
	ErrBound  float32         `json:"errBound"`
	Steps     []QuantStepInfo `json:"steps"`
}

func collectQuantSteps(p *program, out []QuantStepInfo) []QuantStepInfo {
	for i := range p.steps {
		st := &p.steps[i]
		q := st.quant
		if q == nil {
			continue
		}
		if q.inc != nil {
			for _, br := range q.branches {
				out = collectQuantSteps(br.prog, out)
			}
			continue
		}
		out = append(out, QuantStepInfo{Name: st.layer.Name(), ActScale: q.actScale, Bound: q.bound})
	}
	return out
}
