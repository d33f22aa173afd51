package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's contract with BENCHMARK.json: every run reports exactly these
// names, and later changes cite them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, reported by an
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ref", "ref"},
	{"throughput_per_kref", "1/kref"},
	{"wire_bytes_per_req", "bytes"},
	{"cpu_per_req_ref", "ref"},
	{"alloc_mb_per_req", "MB"},
}

// perLayer are the metrics of single layers, named <module>.<what>, reported
// by a traced run (--trace 1). A metric that does not apply to a workload
// (netem on plain loopback, run_front in full mode, a layer type the model
// lacks) reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.classify_p50_ms", "ms"},
		{"core.classify_p90_ms", "ms"},
		{"core.classify_p99_ms", "ms"},
		{"core.throughput_rps", "1/s"},
		{"core.cpu_ms_per_req", "ms"},
		{"core.new_session_ms", "ms"},
		{"webapp.load_dispatch_ms", "ms"},
		{"webapp.run_handler_ms", "ms"},
		{"webapp.run_front_ms", "ms"},
		{"snapshot.capture_ms", "ms"},
		{"snapshot.encode_ms", "ms"},
		{"snapshot.decode_ms", "ms"},
		{"snapshot.restore_ms", "ms"},
		{"snapshot.result_capture_encode_ms", "ms"},
		{"snapshot.result_decode_apply_ms", "ms"},
		{"snapshot.request_bytes", "bytes"},
		{"snapshot.result_bytes", "bytes"},
		{"snapshot.decode_over_encode", "ratio"},
		{"protocol.write_ms", "ms"},
		{"protocol.read_ms", "ms"},
		{"protocol.header_bytes", "bytes"},
		{"netem.transfer_ms", "ms"},
		{"netem.pacing_error_frac", "ratio"},
		{"client.offload_ms", "ms"},
		{"client.presend_ms", "ms"},
		{"client.presend_bytes", "bytes"},
		{"client.local_fallbacks", "count"},
		{"client.redials", "count"},
		{"edge.residual_ms", "ms"},
		{"edge.snapshots_executed", "count"},
		{"edge.errors", "count"},
		{"edge.mux_requests", "count"},
		{"edge.store_bytes", "bytes"},
		{"sched.submitted", "count"},
		{"sched.rejected", "count"},
		{"sched.mean_batch_size", "ratio"},
		{"sched.task_overhead_us", "us"},
		{"nn.forward_ms", "ms"},
		{"nn.gflops", "GFLOP/s"},
		{"nn.plan_compile_ms", "ms"},
	}
	for _, lt := range layerTypes {
		defs = append(defs,
			metricDef{"nn.type." + string(lt) + "_ms", "ms"},
			metricDef{"nn.type." + string(lt) + "_share", "ratio"})
	}
	return append(defs,
		metricDef{"tensor.gemm_large_gflops", "GFLOP/s"},
		metricDef{"tensor.gemm_conv_gflops", "GFLOP/s"},
		metricDef{"tensor.gemv_gflops", "GFLOP/s"},
		metricDef{"tensor.gemm_int8_gops", "GOP/s"},
		metricDef{"tensor.pool_gets_per_req", "count"},
		metricDef{"tensor.pool_outstanding", "count"},
		metricDef{"partition.analyze_ms", "ms"},
		metricDef{"partition.best_index", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.coverage_frac", "ratio"},
		metricDef{"runtime.live_heap_mb", "MB"},
		metricDef{"host.ref_ms", "ms"},
		metricDef{"host.ref_spread_frac", "ratio"},
	)
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for one table and refuses names outside it, so a
// run cannot report a metric twice or invent one.
type metricSet struct {
	units map[string]string
	vals  map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{units: map[string]string{}, vals: map[string]metricValue{}}
	for _, d := range defs {
		m.units[d.name] = d.unit
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	if _, dup := m.vals[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

// finish returns the collected values, or an error naming what is missing.
func (m *metricSet) finish() (map[string]metricValue, error) {
	var missing []string
	for name := range m.units {
		if _, ok := m.vals[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics never set: %v", missing)
	}
	return m.vals, nil
}
