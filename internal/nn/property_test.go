package nn

import (
	"bytes"
	"math"
	"testing"

	"websnap/internal/tensor"
)

// archRNG drives deterministic random architecture generation.
type archRNG struct{ s uint64 }

func (r *archRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

func (r *archRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randomNetwork generates a small random-but-valid CNN: a stem of
// conv/pool/relu/lrn/dropout layers followed by a classifier. It exercises
// the engine across a much wider architecture space than the fixed models.
func randomNetwork(t *testing.T, seed uint64) *Network {
	t.Helper()
	rng := &archRNG{s: seed*2654435761 + 99}
	channels := 1 + rng.intn(3)
	size := 6 + rng.intn(10) // 6..15
	in, err := NewInput("data", channels, size, size)
	if err != nil {
		t.Fatal(err)
	}
	layers := []Layer{in}
	curC, curH := channels, size
	nStem := 1 + rng.intn(4)
	for i := 0; i < nStem; i++ {
		switch rng.intn(5) {
		case 0: // conv, kernel must fit
			k := 1 + rng.intn(3)
			if k > curH {
				k = 1
			}
			outC := 1 + rng.intn(4)
			conv, err := NewConv(name("conv", i), curC, outC, k, 1, rng.intn(2))
			if err != nil {
				t.Fatal(err)
			}
			layers = append(layers, conv)
			curC = outC
		case 1: // pool (only when the spatial size allows halving)
			if curH >= 4 {
				kind := MaxPool
				if rng.intn(2) == 0 {
					kind = AvgPool
				}
				pool, err := NewPool(name("pool", i), kind, 2, 2, 0)
				if err != nil {
					t.Fatal(err)
				}
				layers = append(layers, pool)
			} else {
				layers = append(layers, NewReLU(name("relu", i)))
			}
		case 2:
			layers = append(layers, NewReLU(name("relu", i)))
		case 3:
			lrn, err := NewLRN(name("lrn", i), 3, 0.0001, 0.75)
			if err != nil {
				t.Fatal(err)
			}
			layers = append(layers, lrn)
		default:
			layers = append(layers, NewDropout(name("drop", i), 0.5))
		}
		// Track spatial size through the stem for kernel-fit decisions.
		cur, err := layers[len(layers)-1].OutputShape(curShape(t, layers, in.ExpectedShape()))
		if err != nil {
			t.Fatalf("seed %d: stem shape: %v", seed, err)
		}
		curC, curH = cur[0], cur[1]
	}
	vol := curC * curH * curH
	classes := 2 + rng.intn(5)
	fc, err := NewFC("fc", vol, classes)
	if err != nil {
		t.Fatal(err)
	}
	layers = append(layers, fc, NewSoftmax("prob"))
	net, err := NewNetwork("random", layers...)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	net.InitWeights(seed)
	return net
}

func name(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// curShape chains OutputShape through all layers but the last to get the
// last layer's input shape.
func curShape(t *testing.T, layers []Layer, input []int) []int {
	t.Helper()
	cur := input
	for _, l := range layers[:len(layers)-1] {
		next, err := l.OutputShape(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return cur
}

func randomInput(net *Network, seed uint64) *tensor.Tensor {
	in := tensor.MustNew(net.InputShape()...)
	rng := &archRNG{s: seed + 7}
	for i := range in.Data() {
		in.Data()[i] = float32(rng.intn(2000))/1000 - 1
	}
	return in
}

// TestPropertyRandomNetworks checks engine invariants across 25 random
// architectures:
//  1. Forward output matches OutputShape.
//  2. Softmax output sums to 1 and is non-negative.
//  3. Split-at-every-point equals full forward (partial inference).
//  4. Spec+weights serialization round-trips to identical behavior.
//  5. Describe() chains shapes consistently and FLOPs are non-negative.
func TestPropertyRandomNetworks(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		net := randomNetwork(t, seed)
		in := randomInput(net, seed)

		full, err := net.Forward(in)
		if err != nil {
			t.Fatalf("seed %d: forward: %v", seed, err)
		}
		wantShape, err := net.OutputShape()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if full.Len() != tensor.Volume(wantShape) {
			t.Fatalf("seed %d: output len %d != shape %v", seed, full.Len(), wantShape)
		}
		var sum float64
		for _, v := range full.Data() {
			if v < 0 || math.IsNaN(float64(v)) {
				t.Fatalf("seed %d: softmax output %v", seed, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("seed %d: softmax sum %v", seed, sum)
		}

		for k := 0; k < net.NumLayers()-1; k++ {
			front, rear, err := net.Split(k)
			if err != nil {
				t.Fatalf("seed %d split %d: %v", seed, k, err)
			}
			feat, err := front.Forward(in)
			if err != nil {
				t.Fatalf("seed %d split %d front: %v", seed, k, err)
			}
			if rs := rear.InputShape(); tensor.Volume(rs) == feat.Len() && len(rs) != feat.Rank() {
				feat, err = tensor.FromSlice(feat.Data(), rs...)
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := rear.Forward(feat)
			if err != nil {
				t.Fatalf("seed %d split %d rear: %v", seed, k, err)
			}
			for i := range full.Data() {
				if d := math.Abs(float64(got.Data()[i] - full.Data()[i])); d > 1e-5 {
					t.Fatalf("seed %d split %d: diverges by %g at %d", seed, k, d, i)
				}
			}
		}

		spec, err := EncodeSpec(net)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var wbuf bytes.Buffer
		if err := net.EncodeWeights(&wbuf); err != nil {
			t.Fatal(err)
		}
		clone, err := DecodeModel(spec, wbuf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cloneOut, err := clone.Forward(in)
		if err != nil {
			t.Fatalf("seed %d: clone forward: %v", seed, err)
		}
		for i := range full.Data() {
			if cloneOut.Data()[i] != full.Data()[i] {
				t.Fatalf("seed %d: serialization changed behavior at %d", seed, i)
			}
		}

		infos, err := net.Describe()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, li := range infos {
			if li.FLOPs < 0 || li.ParamCount < 0 || li.OutputBytes <= 0 {
				t.Fatalf("seed %d layer %d: bad accounting %+v", seed, i, li)
			}
		}
	}
}

// TestPropertyPlannedMatchesReference drives randomly generated
// architectures through the planned execution engine and checks every
// output element against the naive per-layer reference implementations
// (engine_test.go) within 1e-6. This is the property-level half of the
// golden equivalence suite: where TestEngineMatchesReferenceLayers pins
// each layer type in isolation, this covers arbitrary compositions and
// the buffer/in-place assignment decisions they induce.
func TestPropertyPlannedMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		net := randomNetwork(t, seed)
		in := randomInput(net, seed)

		want := refNetForward(t, net, in)
		got, err := net.Forward(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := maxAbsDiff(want, got); d > 1e-6 {
			t.Fatalf("seed %d: planned engine diverges from reference by %g", seed, d)
		}
	}
}
