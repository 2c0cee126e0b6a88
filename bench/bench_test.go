package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a small scale with the traced iteration
// and checks the benchmark against BENCHMARK.json: every metric named there
// is emitted, finite and non-negative, and nothing else is; the replay
// produces the facade's contigs; the spans cover the traced total; and the
// two workloads meant to stress different layers do.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			o := options{workload: wl.Name, seed: 1, seconds: 1, iters: 2, scale: 0.05, trace: 2,
				outDir: t.TempDir()}
			res, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.OpsFailed != 0 || res.OpsAttempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.OpsFailed, res.OpsAttempted, res.Failures)
			}
			if res.TracedChecksum != res.Checksum {
				t.Errorf("traced checksum %s differs from the facade's %s", res.TracedChecksum, res.Checksum)
			}
			checkMetrics(t, "end_to_end", spec.EndToEnd, res.EndToEnd)
			checkMetrics(t, "per_layer", spec.PerLayer, res.PerLayer)
			if v := res.PerLayer["trace.unattributed_pct"].Value; v > 5 {
				t.Errorf("trace.unattributed_pct = %v, want at most 5", v)
			}
			busy := res.PerLayer["overlap.busy_s"].Value
			switch wl.Name {
			case "genome_ksweep":
				if busy != 0 {
					t.Errorf("overlap.busy_s = %v on genome_ksweep, want 0", busy)
				}
			case "meta_reads", "meta_tcp":
				if busy == 0 {
					t.Errorf("overlap.busy_s = 0 on %s", wl.Name)
				}
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(trace.TraceEvents), err)
			}
		})
	}
}

func checkMetrics(t *testing.T, group string, want []metricSpec, got map[string]metricValue) {
	t.Helper()
	named := map[string]bool{}
	for _, ms := range want {
		named[ms.Name] = true
		v, ok := got[ms.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is named in BENCHMARK.json but not emitted", group, ms.Name)
		case v.Unit != ms.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", group, ms.Name, v.Unit, ms.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
			t.Errorf("%s metric %s = %v, want finite and non-negative", group, ms.Name, v.Value)
		}
	}
	for name := range got {
		if !named[name] {
			t.Errorf("%s metric %s is emitted but not named in BENCHMARK.json", group, name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}

// TestCompare checks the three verdicts of -compare against the bounds in
// BENCHMARK.json.
func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// write stores a run in which every metric reads 100, except wall_s of
	// the first workload.
	write := func(name string, wall metricValue) string {
		run := runResult{Workloads: map[string]*workloadResult{}}
		for i, wl := range spec.Workloads {
			res := &workloadResult{Workload: wl.Name, OpsAttempted: 5, EndToEnd: map[string]metricValue{}}
			for _, ms := range spec.EndToEnd {
				res.EndToEnd[ms.Name] = single(100, ms.Unit)
			}
			if i == 0 {
				res.EndToEnd["wall_s"] = wall
			}
			run.Workloads[wl.Name] = res
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, run); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", single(100, "s"))
	for _, tc := range []struct {
		name    string
		wall    metricValue
		verdict string
		fails   bool
	}{
		{"same", single(100, "s"), "ok", false},
		{"faster", single(50, "s"), "ok", false},
		{"slower", single(150, "s"), "worse", true},
		{"noisy", metricValue{Value: 150, Unit: "s", Q1: 100, Q3: 200}, "unresolved", false},
	} {
		var out strings.Builder
		err := compare(&out, base, write("b.json", tc.wall))
		if (err != nil) != tc.fails {
			t.Errorf("%s: compare error = %v, want failure %v", tc.name, err, tc.fails)
		}
		// The first wall_s row is the first workload's.
		for _, row := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(row); len(f) > 1 && f[1] == "wall_s" {
				if f[len(f)-1] != tc.verdict {
					t.Errorf("%s: row %q, want verdict %s", tc.name, row, tc.verdict)
				}
				break
			}
		}
	}
}
