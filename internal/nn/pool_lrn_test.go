package nn

import (
	"runtime"
	"testing"

	"websnap/internal/tensor"
	"websnap/internal/testutil"
)

// layerSite is a pooling or LRN layer together with the input shape it
// sees at its position in GoogLeNet (internal/models cannot be imported
// from here; TestCatalogPoolEquivalence and TestCatalogLRNEquivalence there
// walk the real catalog).
type layerSite struct {
	layer Layer
	in    []int
}

func mustPool(kind Pooling, k, stride, pad int) Layer {
	p, err := NewPool("pool", kind, k, stride, pad)
	if err != nil {
		panic(err)
	}
	return p
}

// googLeNetPools lists GoogLeNet's 14 pooling sites: the four stem and
// stage max pools (3x3/s2, ceil mode), the nine 3x3/s1/p1 pools inside the
// inception modules, and the global 7x7 average.
func googLeNetPools() []layerSite {
	stage := mustPool(MaxPool, 3, 2, 0)
	inc := mustPool(MaxPool, 3, 1, 1)
	return []layerSite{
		{stage, []int{64, 112, 112}},
		{stage, []int{192, 56, 56}},
		{inc, []int{192, 28, 28}},
		{inc, []int{256, 28, 28}},
		{stage, []int{480, 28, 28}},
		{inc, []int{480, 14, 14}},
		{inc, []int{512, 14, 14}},
		{inc, []int{512, 14, 14}},
		{inc, []int{512, 14, 14}},
		{inc, []int{528, 14, 14}},
		{stage, []int{832, 14, 14}},
		{inc, []int{832, 7, 7}},
		{inc, []int{832, 7, 7}},
		{mustPool(AvgPool, 7, 1, 0), []int{1024, 7, 7}},
	}
}

// googLeNetLRNs lists GoogLeNet's two LRN sites.
func googLeNetLRNs() []layerSite {
	l, err := NewLRN("norm", 5, 0.0001, 0.75)
	if err != nil {
		panic(err)
	}
	return []layerSite{
		{l, []int{64, 56, 56}},
		{l, []int{192, 56, 56}},
	}
}

// siteRun is one site with its input and output tensors allocated, ready
// for repeated ForwardCtx calls.
type siteRun struct {
	layer   Layer
	in, out *tensor.Tensor
}

// prepareSites allocates every site's tensors and a standalone context,
// whose scratch grows to the largest request on the first pass.
func prepareSites(tb testing.TB, sites []layerSite) ([]siteRun, *ExecContext) {
	tb.Helper()
	runs := make([]siteRun, len(sites))
	for i, s := range sites {
		outShape, err := s.layer.OutputShape(s.in)
		if err != nil {
			tb.Fatal(err)
		}
		in := tensor.MustNew(s.in...)
		fillDeterministic(in, uint64(i)+1)
		runs[i] = siteRun{layer: s.layer, in: in, out: tensor.MustNew(outShape...)}
	}
	return runs, &ExecContext{}
}

func forwardSites(tb testing.TB, runs []siteRun, ctx *ExecContext) {
	for _, r := range runs {
		ctx.soff = 0
		if err := r.layer.ForwardCtx(ctx, r.in, r.out); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchmarkSites(b *testing.B, sites []layerSite) {
	runs, ctx := prepareSites(b, sites)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forwardSites(b, runs, ctx)
	}
}

// BenchmarkPoolGoogLeNet times one GoogLeNet forward pass's worth of
// pooling: all 14 sites, once each per op.
func BenchmarkPoolGoogLeNet(b *testing.B) { benchmarkSites(b, googLeNetPools()) }

// BenchmarkLRNGoogLeNet times both of GoogLeNet's LRN layers per op.
func BenchmarkLRNGoogLeNet(b *testing.B) { benchmarkSites(b, googLeNetLRNs()) }

// TestPoolLRNForwardNoAlloc pins both layers' ForwardCtx at zero
// allocations per call once the context's scratch is sized.
func TestPoolLRNForwardNoAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one processor, as testing.AllocsPerRun measures
	for name, sites := range map[string][]layerSite{"pool": googLeNetPools(), "lrn": googLeNetLRNs()} {
		runs, ctx := prepareSites(t, sites)
		pass := func() { forwardSites(t, runs, ctx) }
		pass()
		if n := testutil.MeasureAllocs(2, pass).Mallocs; n != 0 {
			t.Errorf("%s: %d allocs per pass over the GoogLeNet sites, want 0", name, n)
		}
	}
}
