package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// metric names with their units, directions and regression bounds live
// there and nowhere in this package.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory (the repository
// root, where run.sh starts the binary) or its parent (go test in bench/).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

func loadResult(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is a metric's own quartile distance as a share of its median.
func spread(v metricValue) float64 {
	if v.Value == 0 {
		return 0
	}
	return (v.Q3 - v.Q1) / v.Value
}

// compare prints one row per workload and end-to-end metric of runs A and
// B, and returns an error if B is worse than A by more than the metric's
// bound anywhere, or fails a larger share of its operations.
func compare(w io.Writer, pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	worse := 0
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from one of the runs", wl.Name)
		}
		for _, ms := range spec.EndToEnd {
			va, okA := ra.EndToEnd[ms.Name]
			vb, okB := rb.EndToEnd[ms.Name]
			if !okA || !okB || va.Value == 0 {
				return fmt.Errorf("%s: metric %s is missing from one of the runs", wl.Name, ms.Name)
			}
			// The share of A's median by which B is worse; negative is better.
			by := (vb.Value - va.Value) / va.Value
			if ms.Better == "higher" {
				by = -by
			}
			verdict := "ok"
			switch {
			case spread(va) > ms.Bound || spread(vb) > ms.Bound:
				// The runs' own spread is wider than the bound: the
				// difference cannot be told from noise either way.
				verdict = "unresolved"
			case by > ms.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wl.Name, ms.Name, va.Value, vb.Value, 100*by, 100*ms.Bound, verdict)
		}
		fa := float64(ra.OpsFailed) / float64(max(ra.OpsAttempted, 1))
		fb := float64(rb.OpsFailed) / float64(max(rb.OpsAttempted, 1))
		verdict := "ok"
		if fb > fa {
			verdict = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-15s %-20s %8d/%-5d %8d/%-5d %26s\n", wl.Name, "ops_failed", ra.OpsFailed, ra.OpsAttempted, rb.OpsFailed, rb.OpsAttempted, verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons are worse than their bound", worse)
	}
	return nil
}
