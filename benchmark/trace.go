package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own files. Parent is the span that was open when this one
// began (0 for a root); spans of one traced request share Req.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) durMS() float64 { return (s.EndUS - s.StartUS) / 1000 }

// tracer keeps spans in memory; the traced pass is single-goroutine, so the
// open spans form a stack.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indexes into spans
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.epoch).Nanoseconds()) / 1000 }

// do runs fn inside a span named name, a child of whichever span is open.
func (t *tracer) do(name string, fn func() error) error {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Req: t.req, Name: name})
	t.open = append(t.open, idx)
	t.spans[idx].StartUS = t.now()
	err := fn()
	t.spans[idx].EndUS = t.now()
	t.open = t.open[:len(t.open)-1]
	return err
}

// durations returns every span of the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.durMS())
		}
	}
	return out
}

// medianMS is the median duration of the named span, 0 when it never ran.
func (t *tracer) medianMS(name string) float64 { return median(t.durations(name)) }

// coverage is the median, over spans of the given name, of the share of the
// span its direct children cover: how much of a request the trace accounts
// for.
func (t *tracer) coverage(name string) float64 {
	covered := map[int]float64{}
	for _, s := range t.spans {
		covered[s.Parent] += s.durMS()
	}
	var shares []float64
	for _, s := range t.spans {
		if s.Name == name {
			shares = append(shares, ratio(covered[s.ID], s.durMS()))
		}
	}
	return median(shares)
}

// selfTimes returns each span's duration minus the part its children cover,
// in ms, indexed like t.spans.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.durMS()
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			self[s.Parent-1] -= s.durMS()
		}
	}
	return self
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Host     hostInfo `json:"host"`
	// SelfMS is the median self time per span name.
	SelfMS map[string]float64 `json:"self_ms"`
	Spans  []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64, host hostInfo) error {
	byName := map[string][]float64{}
	for i, v := range t.selfTimes() {
		byName[t.spans[i].Name] = append(byName[t.spans[i].Name], v)
	}
	tf := traceFile{Workload: workload, Seed: seed, Host: host, SelfMS: map[string]float64{}, Spans: t.spans}
	for name, vals := range byName {
		tf.SelfMS[name] = median(vals)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
