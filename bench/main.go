// Command bench is the end-to-end benchmark of the Focus assembler: four
// workloads, each run through the public facade with tracing off for the
// end-to-end metrics, checked for correct output, and run once more with a
// span around every call into a layer for the per-layer metrics. See
// README.md for the metrics and BENCHMARK.json (repository root) for their
// units, directions and regression bounds.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"focus/internal/eval"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	// iters, when positive, runs exactly that many measured iterations
	// instead of measuring for seconds (the smoke test).
	iters int
	scale float64
	// trace: 0 measures the end-to-end metrics only; 1 sets up once,
	// measures for a third of seconds and adds the traced iteration; 2
	// measures in full and adds the traced iteration.
	trace  int
	outDir string
}

// nproc is GOMAXPROCS and every worker count of the benchmark.
var nproc = runtime.NumCPU()

const (
	setupRounds = 3 // set-ups per run; setup_s is their median
	minIters    = 3
)

// metricValue is one reported metric. Timings measured per iteration carry
// their samples; Value is then the median.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

func single(v float64, unit string) metricValue {
	return metricValue{Value: v, Unit: unit, Q1: v, Q3: v}
}

func sampled(xs []float64, unit string) metricValue {
	q1, q3 := quartiles(xs)
	return metricValue{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, Samples: xs}
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Workload       string                 `json:"workload"`
	Input          inputStats             `json:"input"`
	Iterations     int                    `json:"iterations"`
	OpsAttempted   int                    `json:"ops_attempted"`
	OpsFailed      int                    `json:"ops_failed"`
	Failures       []string               `json:"failures,omitempty"`
	Checksum       string                 `json:"checksum"`
	TracedChecksum string                 `json:"traced_checksum,omitempty"`
	EndToEnd       map[string]metricValue `json:"end_to_end"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile      string                 `json:"trace_file,omitempty"`
}

// checksum is the SHA-256 of an operation's contig sets, in order.
func checksum(o op) string {
	h := sha256.New()
	var n [8]byte
	for _, set := range o.sets {
		binary.LittleEndian.PutUint64(n[:], uint64(len(set)))
		h.Write(n[:])
		for _, c := range set {
			binary.LittleEndian.PutUint64(n[:], uint64(len(c)))
			h.Write(n[:])
			h.Write(c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checksums(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = checksum(o)
	}
	return out
}

// check counts ops as attempted and, against the reference checksums of the
// same workload, as failed: output is a deterministic function of reads and
// configuration.
func (res *workloadResult) check(what string, ops []op, ref []string) {
	res.OpsAttempted += len(ops)
	for i, o := range ops {
		switch {
		case o.err != nil:
			res.fail("%s op %d: %v", what, i, o.err)
		case i >= len(ref) || checksum(o) != ref[i]:
			res.fail("%s op %d: contig checksum differs from the first run's", what, i)
		}
	}
}

func (res *workloadResult) fail(format string, args ...any) {
	res.OpsFailed++
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
}

// column is one field of every sample.
func column(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// runWorkload sets the workload up, measures it, checks its output and,
// when asked, traces one more iteration.
func runWorkload(ctx context.Context, o options) (*workloadResult, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	res := &workloadResult{Workload: w.name, EndToEnd: map[string]metricValue{}}

	// The run is several rounds of set-up, warm-up and measurement: setup_s
	// is the median over the rounds, and the measured iterations spread over
	// the whole run, so that a burst of host noise touches fewer of them.
	// The first warm-up's output is the reference every later operation is
	// compared with.
	rounds, budget := setupRounds, o.seconds
	if o.trace == 1 {
		rounds, budget = 1, budget/3
	}
	if o.iters > 0 {
		rounds = 1
	}
	var (
		r       runner
		m       *meter
		ref     []string
		setups  []float64
		samples []sample
		last    []op
	)
	defer func() {
		if r != nil {
			r.close() // error paths only; the success path has checked it
		}
	}()
	for round := 0; round < rounds; round++ {
		if r != nil {
			err := r.close()
			if r = nil; err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m = &meter{wire: &r.common().wire}
		_, warm := r.iterate(m)
		setups = append(setups, time.Since(t0).Seconds())
		for j, op := range warm {
			if op.err != nil {
				return nil, fmt.Errorf("%s: warm-up op %d: %w", w.name, j, op.err)
			}
		}
		if round == 0 {
			ref = checksums(warm)
		} else {
			res.check(fmt.Sprintf("warm-up %d", round), warm, ref)
		}
		atLeast := (minIters + rounds - 1) / rounds
		for start, n := time.Now(), 0; ; n++ {
			if o.iters > 0 && n >= o.iters || o.iters == 0 && n >= atLeast && time.Since(start).Seconds() >= budget/float64(rounds) {
				break
			}
			if err := context.Cause(ctx); err != nil {
				return nil, fmt.Errorf("%s: interrupted: %w", w.name, err)
			}
			runtime.GC() // every iteration starts from a collected heap
			s, ops := r.iterate(m)
			res.check(fmt.Sprintf("iteration %d", len(samples)), ops, ref)
			samples = append(samples, s)
			last = ops
		}
	}
	res.Checksum = strings.Join(ref, ",")
	res.EndToEnd["setup_s"] = sampled(setups, "s")
	res.Iterations = len(samples)
	res.Input = r.common().input

	res.EndToEnd["wall_s"] = sampled(column(samples, func(s sample) float64 { return s.wallS }), "s")
	res.EndToEnd["mbases_per_s"] = sampled(column(samples, func(s sample) float64 { return float64(res.Input.Bases) / 1e6 / s.wallS }), "Mbases/s")
	res.EndToEnd["cpu_s"] = sampled(column(samples, func(s sample) float64 { return s.cpuS }), "s")
	res.EndToEnd["alloc_mb"] = sampled(column(samples, func(s sample) float64 { return s.allocMB }), "MB")
	res.EndToEnd["wire_mb"] = sampled(column(samples, func(s sample) float64 { return s.wireMB }), "MB")

	// Quality of the last iteration's contigs against the simulator's
	// genomes. All iterations have the same checksum, so one is all.
	quality := &eval.Report{}
	if res.OpsFailed == 0 {
		refs := r.common().refs
		rep, err := eval.Evaluate(r.evalContigs(last), refs, eval.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("%s: eval: %w", w.name, err)
		}
		var refBases int
		for _, ref := range refs {
			refBases += len(ref.Seq)
		}
		quality = rep
		gf := 100 * rep.GenomeFraction
		res.EndToEnd["genome_fraction_pct"] = single(gf, "%")
		if perMbase := float64(rep.Misassemblies) / (float64(refBases) / 1e6); gf < w.floor.minGenomeFractionPct || perMbase > w.floor.maxMisassembliesPerMbase {
			for range last {
				res.fail("quality below the floor: genome fraction %.1f%% (floor %.0f%%), %.0f misassemblies/Mbase (ceiling %.0f)",
					gf, w.floor.minGenomeFractionPct, perMbase, w.floor.maxMisassembliesPerMbase)
			}
		}
	}

	if o.trace != 0 {
		if err := tracedRun(r, o, res, ref, samples, quality); err != nil {
			return nil, fmt.Errorf("%s: traced iteration: %w", w.name, err)
		}
	}
	// The high-water mark of this process, which ran this workload alone.
	res.EndToEnd["peak_rss_mb"] = single(peakRSSMB(), "MB")
	err := r.close()
	if r = nil; err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	return res, nil
}

// spanMetrics maps a per-layer timing to the replay span it sums.
var spanMetrics = map[string]string{
	"preprocess.busy_s":      spanPreprocess,
	"overlap.busy_s":         spanOverlap,
	"graph.build_s":          spanGraph,
	"coarsen.busy_s":         spanCoarsen,
	"hybrid.busy_s":          spanHybrid,
	"partition.busy_s":       spanPartition,
	"assembly.digraph_s":     spanDiGraph,
	"assembly.driver_init_s": spanDriverInit,
	"assembly.transitive_s":  spanTransitive,
	"assembly.containment_s": spanContainment,
	"assembly.errors_s":      spanErrors,
	"assembly.traverse_s":    spanTraverse,
	"assembly.contigs_s":     spanContigs,
}

// perLayerUnits names every per-layer metric and its unit; a metric a
// workload does not exercise reads 0 there.
var perLayerUnits = map[string]string{
	"preprocess.busy_s": "s", "preprocess.reads_in": "count", "preprocess.reads_out": "count",
	"overlap.busy_s": "s", "overlap.candgen_s": "s", "overlap.verify_s": "s", "overlap.candidates": "count",
	"overlap.records": "count", "overlap.accept_ratio": "ratio", "overlap.alloc_mb": "MB",
	"align.ns_per_call": "ns",
	"graph.build_s":     "s", "graph.nodes": "count", "graph.edges": "count",
	"coarsen.busy_s": "s", "coarsen.levels": "count", "coarsen.coarsest_nodes": "count",
	"hybrid.busy_s": "s", "hybrid.nodes": "count", "hybrid.alloc_mb": "MB",
	"partition.busy_s": "s", "partition.edge_cut_k16": "count", "partition.imbalance_k16": "ratio",
	"assembly.digraph_s": "s", "assembly.driver_init_s": "s", "assembly.transitive_s": "s",
	"assembly.containment_s": "s", "assembly.errors_s": "s", "assembly.traverse_s": "s", "assembly.contigs_s": "s",
	"assembly.transitive_removed": "count", "assembly.contained_removed": "count",
	"assembly.false_edges_removed": "count", "assembly.deadend_removed": "count",
	"assembly.task_s_sum": "s", "assembly.task_skew": "ratio",
	"dist.rpc_calls": "count", "dist.wire_bytes_align": "bytes", "dist.wire_bytes_phases": "bytes",
	"dist.overhead_s": "s", "dist.evictions": "count", "dist.reconnects": "count", "dist.kicks": "count",
	"jobs.queue_wait_p50_s": "s", "jobs.queue_wait_max_s": "s", "jobs.run_p50_s": "s",
	"jobs.completed": "count", "jobs.rejected": "count",
	"runtime.gc_cycles": "count", "runtime.gc_pause_ms": "ms",
	"par.speedup": "ratio", "par.efficiency": "ratio",
	"trace.overhead_pct": "%", "trace.unattributed_pct": "%",
	"eval.misassemblies": "count", "eval.nga50": "bp",
}

// tracedRun performs the traced iteration, checks that it produced the
// facade's output, and derives the per-layer metrics from its spans.
func tracedRun(r runner, o options, res *workloadResult, ref []string, samples []sample, quality *eval.Report) error {
	tr := newTracer(res.Workload)
	ls := &layerStats{m: map[string]float64{}}
	runtime.GC()
	ops := r.traced(tr, ls)
	res.check("traced iteration", ops, ref)
	res.TracedChecksum = strings.Join(checksums(ops), ",")
	if len(tr.spans) == 0 {
		return errors.New("no spans recorded")
	}
	wall := median(column(samples, func(s sample) float64 { return s.wallS }))
	if res.OpsFailed == 0 {
		if err := r.extras(ls, wall); err != nil {
			return err
		}
	}
	for metric, name := range spanMetrics {
		if d := tr.total(name); d > 0 {
			ls.m[metric] = d.Seconds()
		}
	}
	if busy := ls.m["overlap.busy_s"]; busy > 0 {
		// Computed, not measured: candidate generation was timed alone.
		ls.m["overlap.verify_s"] = math.Max(0, busy-ls.m["overlap.candgen_s"])
	}
	ls.m["runtime.gc_cycles"] = median(column(samples, func(s sample) float64 { return s.gcCycles }))
	ls.m["runtime.gc_pause_ms"] = median(column(samples, func(s sample) float64 { return s.gcMsec }))
	ls.m["eval.misassemblies"] = float64(quality.Misassemblies)
	ls.m["eval.nga50"] = float64(quality.NGA50())
	total := tr.spans[0].dur().Seconds()
	// Reads 0 when the traced iteration was not slower than the untraced
	// median: the overhead is then below the run-to-run noise.
	ls.m["trace.overhead_pct"] = math.Max(0, 100*(total-wall)/wall)
	ls.m["trace.unattributed_pct"] = 100 * tr.self(0).Seconds() / total

	res.PerLayer = map[string]metricValue{}
	for name, unit := range perLayerUnits {
		res.PerLayer[name] = single(ls.m[name], unit)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(o.outDir, res.Workload+".trace.json")
	return tr.writeChrome(res.TraceFile)
}

// host records where the numbers were measured, so that a parallel
// speed-up is either measured on real cores or visibly not claimed.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

func hostFacts(o options) host {
	h := host{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: o.seed, Seconds: o.seconds, Scale: o.scale}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	return h
}

// runResult is the DIR/result.json artifact: one run of every workload.
type runResult struct {
	Host      host                       `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics prints every metric of the result by name with its unit.
func printMetrics(res *workloadResult) {
	fmt.Printf("== %s: %d reads, %d bases, %d records; %d iterations; ops_attempted=%d ops_failed=%d\n",
		res.Workload, res.Input.Reads, res.Input.Bases, res.Input.Records, res.Iterations, res.OpsAttempted, res.OpsFailed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, group := range []map[string]metricValue{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := group[name]
			fmt.Printf("   %-30s %14.6g %-9s", name, v.Value, v.Unit)
			if len(v.Samples) > 1 {
				fmt.Printf(" median of %d, quartiles %.6g..%.6g", len(v.Samples), v.Q1, v.Q3)
			}
			fmt.Println()
		}
	}
}

// printContractLine prints the result as the one JSON object the acceptance
// driver reads from the last line of standard output.
func printContractLine(res *workloadResult, metrics map[string]metricValue) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.OpsFailed == 0, res.OpsAttempted, res.OpsFailed, map[string]mv{}}
	for name, v := range metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runAll re-executes this binary once per workload, so that CPU time and
// the RSS high-water mark belong to that workload alone, and merges the
// children's results into DIR/result.json.
func runAll(ctx context.Context, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	all := runResult{Host: hostFacts(o), Workloads: map[string]*workloadResult{}}
	failed := 0
	for _, w := range workloads {
		part := filepath.Join(o.outDir, w.name+".result.json")
		cmd := exec.CommandContext(ctx, self,
			"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-scale", fmt.Sprint(o.scale), "-iters", fmt.Sprint(o.iters), "-trace", fmt.Sprint(o.trace),
			"-out", o.outDir, "-result", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		data, err := os.ReadFile(part)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, errors.Join(runErr, err))
		}
		var res workloadResult
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all.Workloads[w.name] = &res
		failed += res.OpsFailed
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func run() error {
	var o options
	var resultPath string
	var compareMode bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long each workload measures")
	flag.IntVar(&o.iters, "iters", 0, "measure exactly this many iterations instead of -seconds")
	flag.Float64Var(&o.scale, "scale", 1, "input size multiplier")
	flag.IntVar(&o.trace, "trace", 2, "0: end-to-end metrics only; 1: short measurement plus the traced iteration, per-layer metrics printed; 2: both in full")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result.json, traces and temporary FASTQ")
	flag.StringVar(&resultPath, "result", "", "also write the workload's full result to this file")
	flag.BoolVar(&compareMode, "compare", false, "compare two result.json files: -compare A.json B.json")
	flag.Parse()
	if compareMode {
		if flag.NArg() != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 || o.scale <= 0 || o.trace < 0 || o.trace > 2 {
		return errors.New("-seconds and -scale must be positive, -trace one of 0, 1, 2")
	}
	runtime.GOMAXPROCS(nproc)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.workload == "all" {
		return runAll(ctx, o)
	}
	res, err := runWorkload(ctx, o)
	if err != nil {
		return err
	}
	printMetrics(res)
	if resultPath != "" {
		if err := writeJSON(resultPath, res); err != nil {
			return err
		}
	}
	metrics := res.EndToEnd
	if o.trace == 1 {
		metrics = res.PerLayer
	}
	if err := printContractLine(res, metrics); err != nil {
		return err
	}
	if res.OpsFailed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.OpsFailed, res.OpsAttempted)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
