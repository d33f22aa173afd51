package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// manifest is the part of BENCHMARK.json that -compare needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		data, err = os.ReadFile("../BENCHMARK.json") // run from benchmark/
	}
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

// readRuns groups the untraced runs of an -out file: workload -> metric ->
// one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: run of %s (seed %d) was not correct", path, rec.Workload, rec.Seed)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// ratio b/a and a verdict against the metric's bound: worse when b's median
// is beyond the bound, unresolved when either side's run-to-run spread is
// wider than the bound, ok otherwise. It fails when anything is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	man, err := readManifest()
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %-20s %12s %12s %9s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "b/a", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, def := range man.EndToEnd {
			va, vb := a[wl.name][def.Name], b[wl.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma) // positive = b larger
			if def.Better == "higher" {
				change = -change
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case change > def.Bound:
				verdict = "worse"
				worse++
			case sp > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-22s %-20s %12.6g %12.6g %9.4f %8.4f %6.2f  %s (n=%d,%d)\n",
				wl.name, def.Name, ma, mb, ratio(mb, ma), sp, def.Bound, verdict, len(va), len(vb))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
