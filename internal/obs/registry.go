// Package obs is the unified observability layer of the offloading system:
// a labeled metrics registry with Prometheus text exposition, structured
// JSON-line leveled logging, and the offload decision audit that makes the
// paper's central claim — offload exactly when T_trans + T_server < T_local
// — continuously measurable at runtime.
//
// The registry replaces per-component hard-coded counter structs and
// hand-rolled exposition: components register named counter/gauge/histogram
// families (with bounded label sets) once, increment handles on the hot
// path, and one renderer serves every scrape. The audit (see audit.go)
// records one structured event per offload decision — the chosen path, the
// cost model's prediction, and the measured outcome — turning prediction
// error into a first-class measured quantity.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"websnap/internal/trace"
)

// Kind is a metric family's type.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DefaultMaxSeries bounds the number of distinct label-value combinations a
// family accepts before folding new combinations into the overflow series.
// Decision reasons, error kinds, and model names are all naturally small
// sets; the bound is a guard against a cardinality leak (e.g. a label
// accidentally fed a request ID) blowing up scrape size and memory.
const DefaultMaxSeries = 64

// OverflowLabel is the label value series beyond the family's bound
// collapse into.
const OverflowLabel = "__other__"

// series is one (family, label values) time series.
type series struct {
	labelValues []string
	// count backs counters; bits backs set-style gauges (float64 bits);
	// fn backs callback-valued counters and gauges; hist backs histograms.
	count atomic.Int64
	bits  atomic.Uint64
	fn    func() float64
	hist  *trace.Histogram
}

// family is one named metric family with a fixed label schema.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	maxSeries  int

	mu     sync.RWMutex
	series map[string]*series
	// order preserves first-registration order for deterministic
	// exposition within one process lifetime.
	order []*series
}

// Registry holds metric families and renders them for scrapes. All methods
// are safe for concurrent use. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on schema conflicts — metric
// registration happens at construction time, where a name collision is a
// programming error that must not ship.
func (r *Registry) register(name, help string, kind Kind, labelNames []string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.families[name]; ok {
		if prev.kind != kind || strings.Join(prev.labelNames, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return prev
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		maxSeries:  DefaultMaxSeries,
		series:     make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

// seriesKey joins label values into a map key. Values containing the
// separator still produce distinct keys because each value is
// length-prefixed.
func seriesKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%d:%s;", len(v), v)
	}
	return b.String()
}

// get returns the series for the given label values, creating it if the
// family has room; beyond maxSeries every new combination collapses into
// the overflow series (all label values OverflowLabel).
func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels",
			f.name, len(values), len(f.labelNames)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	if len(f.order) >= f.maxSeries {
		overflow := make([]string, len(values))
		for i := range overflow {
			overflow[i] = OverflowLabel
		}
		okey := seriesKey(overflow)
		if s, ok = f.series[okey]; ok {
			return s
		}
		key, values = okey, overflow
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.hist = &trace.Histogram{}
	}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// Counter is a monotonically increasing integer metric handle.
type Counter struct{ s *series }

// Add increments the counter by n (negative deltas are dropped).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.s.count.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current value.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.s.count.Load()
}

// Gauge is a settable instantaneous-value metric handle.
type Gauge struct{ s *series }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.bits.Store(floatBits(v))
}

// Value returns the gauge's current value (callback gauges evaluate their
// function).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.s.fn != nil {
		return g.s.fn()
	}
	return floatFromBits(g.s.bits.Load())
}

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// CounterVec is a counter family handle with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use; collapsed into the overflow series past the cardinality bound).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// GaugeVec is a gauge family handle with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// Func makes fn the series for the given label values, evaluated at scrape
// time — the labeled counterpart of Registry.GaugeFunc.
func (v *GaugeVec) Func(fn func() float64, labelValues ...string) {
	v.f.get(labelValues).fn = fn
}

// HistogramVec is a histogram family handle with labels. Values are
// durations; exposition renders them in seconds.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *trace.Histogram {
	return v.f.get(labelValues).hist
}

// Attach registers an externally owned histogram as the series for the
// given label values, so existing recorders (e.g. the trace pipeline's
// per-stage histograms) expose through the registry without double
// bookkeeping. Attaching to an existing series replaces its histogram.
func (v *HistogramVec) Attach(h *trace.Histogram, labelValues ...string) {
	if h == nil {
		return
	}
	s := v.f.get(labelValues)
	v.f.mu.Lock()
	s.hist = h
	v.f.mu.Unlock()
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{s: r.register(name, help, KindCounter, nil).get(nil)}
}

// CounterFunc registers a callback-valued counter: the function is
// evaluated at scrape time and must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	s := r.register(name, help, KindCounter, nil).get(nil)
	s.fn = func() float64 { return float64(fn()) }
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labelNames)}
}

// Gauge registers (or fetches) an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{s: r.register(name, help, KindGauge, nil).get(nil)}
}

// GaugeFunc registers a callback-valued gauge, evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	s := r.register(name, help, KindGauge, nil).get(nil)
	s.fn = fn
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labelNames)}
}

// Histogram registers (or fetches) an unlabeled duration histogram.
func (r *Registry) Histogram(name, help string) *trace.Histogram {
	return r.register(name, help, KindHistogram, nil).get(nil).hist
}

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labelNames)}
}

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders {a="x",b="y"} for the series, with extra appended as
// pre-rendered pairs (used for histogram le labels). Returns "" for
// unlabeled series with no extras.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	parts := make([]string, 0, len(names)+len(extra))
	for i, n := range names {
		parts = append(parts, n+`="`+escapeLabelValue(values[i])+`"`)
	}
	parts = append(parts, extra...)
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a sample value the way the pre-registry exposition
// did: strconv 'g' with minimal digits.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order and series within a family in creation order, so repeated scrapes
// of one process are stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	var b strings.Builder
	for _, f := range fams {
		f.mu.RLock()
		ss := append([]*series(nil), f.order...)
		f.mu.RUnlock()
		if len(ss) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range ss {
			labels := labelString(f.labelNames, s.labelValues)
			switch f.kind {
			case KindCounter:
				v := s.count.Load()
				if s.fn != nil {
					v = int64(s.fn())
				}
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labels, v)
			case KindGauge:
				v := floatFromBits(s.bits.Load())
				if s.fn != nil {
					v = s.fn()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labels, formatFloat(v))
			case KindHistogram:
				writeHistogramSeries(&b, f, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogramSeries renders one histogram series: occupied buckets
// (cumulative), the mandatory +Inf bucket, sum, and count, in seconds. The
// log-bucketed histogram has hundreds of potential buckets; only populated
// ones are emitted.
func writeHistogramSeries(b *strings.Builder, f *family, s *series) {
	h := s.hist
	if h == nil {
		return
	}
	base := labelPairs(f.labelNames, s.labelValues)
	cum := uint64(0)
	h.ForEachBucket(func(upper time.Duration, count uint64) {
		cum += count
		le := `le="` + formatFloat(upper.Seconds()) + `"`
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bracket(append(base, le)), cum)
	})
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bracket(append(base, `le="+Inf"`)), h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, bracket(base), formatFloat(h.Sum().Seconds()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, bracket(base), h.Count())
}

// labelPairs renders each name/value pair; bracket joins them, returning ""
// when empty.
func labelPairs(names, values []string) []string {
	pairs := make([]string, 0, len(names)+1)
	for i, n := range names {
		pairs = append(pairs, n+`="`+escapeLabelValue(values[i])+`"`)
	}
	return pairs
}

func bracket(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// MetricsHandler serves /metrics: the registries, written in order, as one
// Prometheus text exposition (version 0.0.4) — the only format, whatever the
// request's Accept header or query says. Each function is called once per
// scrape, so a registry may be built per scrape (fleetd's rollup); their
// family names must be disjoint. Any method but GET is answered 405.
func MetricsHandler(regs ...func() *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var b bytes.Buffer
		for _, reg := range regs {
			reg().WritePrometheus(&b) //nolint:errcheck // a bytes.Buffer write cannot fail
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(b.Bytes()) //nolint:errcheck // best-effort scrape reply
	})
}

// Families returns the registered family names in registration order (for
// tests and debugging).
func (r *Registry) Families() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	for i, f := range r.order {
		out[i] = f.name
	}
	return out
}

// SeriesCount returns the number of live series in the named family (0 if
// absent), letting tests assert the cardinality bound.
func (r *Registry) SeriesCount(name string) int {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.order)
}
