// Package focus is a from-scratch Go implementation of the Focus parallel
// NGS assembler of Warnke-Sommer & Ali, "Parallel NGS Assembly Using
// Distributed Assembly Graphs Enriched with Biological Knowledge"
// (IEEE IPDPSW 2017).
//
// The pipeline mirrors the paper: read preprocessing, k-mer seeded
// pairwise overlap alignment over a per-subset packed k-mer seed index,
// overlap graph construction, multilevel coarsening by heavy-edge
// matching, hybrid graph construction from best-representative read
// clusters, multilevel graph partitioning (greedy growing +
// Kernighan–Lin + global k-way refinement), and distributed graph
// trimming/traversal on an RPC master/worker pool, ending in contigs.
//
// The one-call entry point is Assemble; BuildStages exposes the
// intermediate artifacts (overlap graph, multilevel set, hybrid graph,
// directed hybrid graph) that the benchmark harness measures individually.
package focus

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"focus/internal/assembly"
	"focus/internal/checkpoint"
	"focus/internal/coarsen"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/hybrid"
	"focus/internal/metrics"
	"focus/internal/overlap"
	"focus/internal/partition"
	"focus/internal/preprocess"
)

// Read is a sequencing read (re-exported for API users).
type Read = dna.Read

// Stats are assembly quality statistics (N50, max contig, contig count).
type Stats = assembly.Stats

// TrimStats report what distributed graph trimming removed.
type TrimStats = assembly.TrimStats

// Config bundles the per-stage configurations.
type Config struct {
	Preprocess preprocess.Config
	// Subsets is the number of read subsets for parallel alignment
	// (paper §II.A-B).
	Subsets  int
	Overlap  overlap.Config
	Coarsen  coarsen.Options
	Hybrid   hybrid.Config
	Assembly assembly.Config
	// GraphWorkers bounds the worker pools of the graph-construction
	// stages: the overlap-graph CSR edge merge, coarsening
	// (matching + contraction), the hybrid layout search and the CSR
	// graph-cleaning scans. 0 means
	// auto: the internal/par governor picks serial or parallel per stage
	// invocation from the input size and GOMAXPROCS, so small inputs skip
	// goroutine fan-out entirely. Explicit counts are still capped at
	// GOMAXPROCS. Purely a throughput knob — stage outputs are identical
	// at any value. Per-stage knobs (Coarsen.Workers, Hybrid.Workers)
	// take precedence when set.
	GraphWorkers int
	// CallVariants enables distributed variant detection (the paper's
	// §VI.D future-work extension): bubbles are classified and reported
	// before the error-removal phase pops them.
	CallVariants bool
	Variants     assembly.VariantConfig
	// Dist configures the worker pool's fault tolerance (per-call
	// deadlines, eviction thresholds, reconnect backoff) for pools the
	// pipeline creates itself (Assemble). The zero value disables
	// deadlines.
	Dist dist.Options
	// Checkpoint configures crash-safe phase-boundary checkpointing of
	// the distributed assembly phases. The zero value disables it.
	Checkpoint Checkpoint
	// Context, when set, bounds the whole run: cancel it and every stage
	// — local worker pools at their grain boundaries, in-flight RPCs by
	// severing the connection — unwinds and the pipeline returns the
	// cancellation cause. nil means the run is unbounded.
	Context context.Context
	// Deadline, when positive, is the run's wall-clock budget. The
	// one-call entry points (Assemble, AssembleOnPool) derive a deadline
	// context from Context at start; the assembly driver further splits
	// the remaining time into per-phase budgets weighted by measured
	// phase cost. Callers driving Stages manually apply it with
	// RunContext.
	Deadline time.Duration
	// Watchdog arms the assembly-phase progress watchdog: if no task
	// completions are observed for Watchdog.Window, stuck workers are
	// kicked (connection severed, tasks rescheduled) and, when kicking is
	// exhausted, the run is canceled with assembly.ErrStalled. The zero
	// value disarms it.
	Watchdog assembly.WatchdogConfig
	// Metrics, when set, receives the run's operational metrics (re-host /
	// degradation counters, per-phase latency histograms). A resident
	// master shares one registry across every job it hosts. Nil disables
	// instrumentation.
	Metrics *metrics.Registry
	// PhaseCosts, when set, replaces the driver's private per-phase cost
	// model for deadline budgeting, letting a resident master pool phase-
	// duration observations across jobs. Nil keeps the per-run default.
	PhaseCosts *metrics.CostModel
}

// ErrDeadline is the cancellation cause installed when Config.Deadline
// expires.
var ErrDeadline = errors.New("focus: run deadline exceeded")

// RunContext derives the run's root context from cfg: Config.Context (or
// context.Background) with Config.Deadline applied as an absolute
// deadline whose cause is ErrDeadline. The returned stop func releases
// the deadline timer; callers must invoke it when the run ends.
func (cfg Config) RunContext() (context.Context, context.CancelFunc) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Deadline > 0 {
		return context.WithDeadlineCause(ctx, time.Now().Add(cfg.Deadline), ErrDeadline)
	}
	return ctx, func() {}
}

// IsInterrupted reports whether err is a cancellation outcome — user
// cancel, run deadline, phase-budget exhaustion, or a watchdog stall —
// rather than a pipeline failure. An interrupted run with checkpointing
// enabled leaves a resumable checkpoint behind.
func IsInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, assembly.ErrPhaseBudget) ||
		errors.Is(err, assembly.ErrStalled)
}

// ctxErr returns nil while ctx is live and the cancellation cause once it
// is done; a nil ctx is never done.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

// Checkpoint configures durable assembly state: with Dir set, the master
// serializes its graph, removal journal and phase counters into an
// atomic, CRC-framed checkpoint file after phase boundaries; with Resume
// also set, Stages.Assemble restarts from the newest valid checkpoint in
// Dir (skipping the phases it records) instead of rebuilding the
// assembly graph, and produces output identical to an uninterrupted run.
type Checkpoint struct {
	// Dir receives checkpoint files; empty disables checkpointing.
	Dir string
	// Every writes a checkpoint at every Nth phase boundary (<= 1: all).
	Every int
	// Resume restarts from the newest valid checkpoint in Dir. When Dir
	// holds no checkpoint at all the run starts fresh; when it holds only
	// corrupt ones the run fails loudly rather than silently restarting.
	Resume bool
	// Job, when non-empty, claims Dir as this job's checkpoint namespace:
	// the first run stamps Dir with the job id, and any later run claiming
	// it under a different id fails with checkpoint.ErrNamespace instead
	// of silently interleaving two jobs' checkpoint frames. Empty skips
	// the ownership check (single-tenant compatibility).
	Job string
}

// Variant is a distributed variant call (re-exported).
type Variant = assembly.Variant

// DefaultConfig mirrors the paper's published parameters: 50 bp minimum
// overlap at 90% identity, 1.03 balance, 50-move KL early stop, ~10 graph
// levels.
func DefaultConfig() Config {
	cfg := Config{
		Preprocess: preprocess.Config{
			Window:     10,
			Step:       1,
			MinQuality: 12,
			MinLen:     40,
			AddReverse: true,
		},
		Subsets:  4,
		Overlap:  overlap.DefaultConfig(),
		Coarsen:  coarsen.DefaultOptions(),
		Hybrid:   hybrid.DefaultConfig(),
		Assembly: assembly.DefaultConfig(),
	}
	// Keep enough coarsest-level nodes for up to 64-way partitioning.
	cfg.Coarsen.MinNodes = 128
	cfg.Variants = assembly.DefaultVariantConfig()
	return cfg
}

// applyGraphWorkers propagates Config.GraphWorkers into the per-stage
// worker knobs that are still unset.
func (cfg Config) applyGraphWorkers() Config {
	if cfg.GraphWorkers > 0 {
		if cfg.Coarsen.Workers == 0 {
			cfg.Coarsen.Workers = cfg.GraphWorkers
		}
		if cfg.Hybrid.Workers == 0 {
			cfg.Hybrid.Workers = cfg.GraphWorkers
		}
		if cfg.Assembly.Workers == 0 {
			cfg.Assembly.Workers = cfg.GraphWorkers
		}
	}
	return cfg
}

// Stages holds every intermediate pipeline artifact.
type Stages struct {
	Cfg      Config
	Reads    []Read // preprocessed reads; index = overlap graph node id
	PreStats preprocess.Stats
	Records  []overlap.Record
	G0       *graph.Graph // the overlap graph
	MSet     *graph.Set   // multilevel graph set {G0…Gn}
	Hyb      *hybrid.Hybrid
	// DiGraph is the directed hybrid graph as built, the template every
	// Assemble call clones: Stages never trims it, so it stays valid for
	// any number of calls, concurrent ones included.
	DiGraph *assembly.DiGraph
	Timings map[string]time.Duration
}

// BuildStages runs the pipeline through directed hybrid graph construction.
// With Config.Context set, every stage is cancellation-bounded and the
// first canceled stage aborts the build with the context's cause.
func BuildStages(raw []Read, cfg Config) (*Stages, error) {
	return buildStages(raw, cfg, func(ctx context.Context, reads []Read) ([]overlap.Record, error) {
		return overlap.FindOverlapsCtx(ctx, reads, cfg.subsets(), cfg.Overlap)
	})
}

// BuildStagesOnPool is BuildStages with the read-alignment stage
// distributed over the worker pool (paper §II.B: subset pairs are sent to
// different processors), instead of local goroutines. Results are
// identical to BuildStages for the same configuration.
func BuildStagesOnPool(raw []Read, cfg Config, pool *dist.Pool) (*Stages, error) {
	return buildStages(raw, cfg, func(ctx context.Context, reads []Read) ([]overlap.Record, error) {
		return overlap.FindOverlapsDistributedCtx(ctx, pool, reads, cfg.subsets(), cfg.Overlap)
	})
}

// BuildStagesFromRecords is BuildStages with the overlap-detection stage
// (the pipeline's dominant cost) replaced by precomputed records, e.g.
// loaded via graphio.ReadRecords. Preprocessing is deterministic, so the
// records saved from one run apply to a later run over the same input and
// config; numReads (from the record file) is validated against the
// preprocessed read count (that check is all Timings["overlap"] covers).
func BuildStagesFromRecords(raw []Read, records []overlap.Record, numReads int, cfg Config) (*Stages, error) {
	return buildStages(raw, cfg, func(_ context.Context, reads []Read) ([]overlap.Record, error) {
		if len(reads) != numReads {
			return nil, fmt.Errorf("record file was built for %d reads, preprocessing produced %d (input or config changed)", numReads, len(reads))
		}
		return records, nil
	})
}

// subsets is Config.Subsets with the zero value read as one subset.
func (cfg Config) subsets() int {
	if cfg.Subsets <= 0 {
		return 1
	}
	return cfg.Subsets
}

// buildStages is the one stage sequence behind the exported builders;
// they differ only in findOverlaps, which yields the overlap records of
// the preprocessed reads. Every stage is timed under its name in
// Stages.Timings, and the context is checked before each stage, so a
// cancel that lands inside a context-unaware stage (preprocess) still
// stops the build at the next boundary.
func buildStages(raw []Read, cfg Config, findOverlaps func(ctx context.Context, reads []Read) ([]overlap.Record, error)) (*Stages, error) {
	cfg = cfg.applyGraphWorkers()
	ctx := cfg.Context
	s := &Stages{Cfg: cfg, Timings: map[string]time.Duration{}}
	for _, st := range []struct {
		name string
		run  func() error
	}{
		{"preprocess", func() (err error) {
			s.Reads, s.PreStats, err = preprocess.Run(raw, cfg.Preprocess)
			if err == nil && len(s.Reads) == 0 {
				err = errors.New("no reads survived preprocessing")
			}
			return err
		}},
		{"overlap", func() (err error) {
			s.Records, err = findOverlaps(ctx, s.Reads)
			return err
		}},
		{"graph", func() (err error) {
			s.G0, err = overlap.BuildGraphParCtx(ctx, len(s.Reads), s.Records, cfg.GraphWorkers)
			return err
		}},
		{"coarsen", func() (err error) {
			s.MSet, err = coarsen.MultilevelCtx(ctx, s.G0, cfg.Coarsen)
			return err
		}},
		{"hybrid", func() (err error) {
			s.Hyb, err = hybrid.BuildCtx(ctx, s.MSet, s.Reads, s.Records, cfg.Hybrid)
			return err
		}},
		{"digraph", func() (err error) {
			s.DiGraph, err = assembly.BuildDiGraph(s.Hyb, s.Records)
			return err
		}},
	} {
		err := ctxErr(ctx)
		if err == nil {
			t0 := time.Now()
			err = st.run()
			s.Timings[st.name] = time.Since(t0)
		}
		if err != nil {
			return nil, stageError(st.name, err)
		}
	}
	return s, nil
}

// stageError names the facade and the failed stage once each: a layer
// whose errors already carry the stage's name ("overlap: k=0 out of
// range") is not named again.
func stageError(stage string, err error) error {
	if strings.HasPrefix(err.Error(), stage+": ") {
		return fmt.Errorf("focus: %w", err)
	}
	return fmt.Errorf("focus: %s: %w", stage, err)
}

// PartitionHybrid partitions the hybrid graph set (the paper's
// knowledge-enriched scheme, §III) into k parts and returns the result
// with its wall-clock time.
func (s *Stages) PartitionHybrid(k, procs int, seed int64) (*partition.Result, time.Duration, error) {
	opt := partition.DefaultOptions(k)
	opt.Procs = procs
	opt.Seed = seed
	t0 := time.Now()
	res, err := partition.PartitionSetCtx(s.Cfg.Context, s.Hyb.Set, opt)
	return res, time.Since(t0), err
}

// PartitionMultilevel partitions the full multilevel graph set (the
// paper's naive baseline) into k parts.
func (s *Stages) PartitionMultilevel(k, procs int, seed int64) (*partition.Result, time.Duration, error) {
	opt := partition.DefaultOptions(k)
	opt.Procs = procs
	opt.Seed = seed
	t0 := time.Now()
	res, err := partition.PartitionSetCtx(s.Cfg.Context, s.MSet, opt)
	return res, time.Since(t0), err
}

// HybridCuts returns the edge cut of a hybrid partitioning measured on the
// hybrid graph G'0 and, after projection through the representatives, on
// the overlap graph G0 (Table II's two columns).
func (s *Stages) HybridCuts(res *partition.Result) (hybridCut, overlapCut int64) {
	hybridCut = partition.EdgeCut(s.Hyb.G, res.Labels())
	overlapCut = partition.EdgeCut(s.G0, s.ReadLabels(res))
	return hybridCut, overlapCut
}

// ReadLabels projects a hybrid partitioning onto the overlap graph nodes
// (= reads).
func (s *Stages) ReadLabels(res *partition.Result) []int32 {
	return partition.MapLabels(res.Labels(), s.Hyb.RepOf)
}

// AssemblyResult is the output of the distributed assembly phases.
type AssemblyResult struct {
	Contigs      [][]byte
	Stats        Stats
	Trim         TrimStats
	Paths        [][]int32
	Labels       []int32   // hybrid-node partition labels used
	Variants     []Variant // non-nil only when Config.CallVariants is set
	TrimTime     time.Duration
	TraverseTime time.Duration
	// TraverseTaskTimes are the measured per-partition traversal task
	// durations (trimming's are inside Trim.PhaseTaskTimes).
	TraverseTaskTimes []time.Duration
}

// SimTrimTime projects the measured per-partition trimming task times
// onto a pool of w workers (phases are barriers, tasks within a phase are
// scheduled LPT). It reproduces the paper's Fig. 6 runtime-vs-partitions
// behaviour on hosts with fewer cores than partitions.
func (r *AssemblyResult) SimTrimTime(w int) time.Duration {
	var total time.Duration
	for _, phase := range r.Trim.PhaseTaskTimes {
		total += metrics.Makespan(phase, w)
	}
	return total
}

// SimTraverseTime projects the per-partition traversal task times onto w
// workers.
func (r *AssemblyResult) SimTraverseTime(w int) time.Duration {
	return metrics.Makespan(r.TraverseTaskTimes, w)
}

// Assemble runs distributed trimming and traversal of the hybrid graph on
// the given worker pool with k partitions, and constructs contigs.
// The driver trims a clone of Stages.DiGraph, so Assemble can be called
// repeatedly with different k on the same Stages, also concurrently.
//
// With Config.Checkpoint.Resume set, the assembly graph, partitioning and
// already-completed phases are restored from the newest valid checkpoint
// in Config.Checkpoint.Dir instead of being recomputed; the remaining
// phases run normally and the final output matches an uninterrupted run.
func (s *Stages) Assemble(pool *dist.Pool, k, procs int, seed int64) (*AssemblyResult, error) {
	var driver *assembly.Driver
	var labels []int32
	ck := s.Cfg.Checkpoint
	if ck.Dir != "" && ck.Job != "" {
		// Namespace ownership is checked before any checkpoint is read or
		// written: resuming another job's frames must fail loudly
		// (checkpoint.ErrNamespace), never produce a silently mixed graph.
		if err := checkpoint.Claim(ck.Dir, ck.Job); err != nil {
			return nil, fmt.Errorf("focus: checkpoint namespace: %w", err)
		}
	}
	if ck.Resume && ck.Dir != "" {
		cs, err := assembly.LoadLatestCheckpoint(ck.Dir)
		switch {
		case err == nil:
			driver, err = assembly.ResumeDriver(pool, cs, s.Cfg.Assembly)
			if err != nil {
				return nil, err
			}
			labels = cs.Labels
			k = cs.K
		case errors.Is(err, checkpoint.ErrNone):
			// Nothing to resume yet: fall through to a fresh run (the
			// normal first invocation with -resume always on).
		default:
			return nil, fmt.Errorf("focus: resume: %w", err)
		}
	}
	if driver == nil {
		dg := s.DiGraph.Clone()
		if k == 1 {
			labels = make([]int32, dg.NumNodes())
		} else {
			res, _, err := s.PartitionHybrid(k, procs, seed)
			if err != nil {
				return nil, stageError("partition", err)
			}
			labels = res.Labels()
		}
		var err error
		driver, err = assembly.NewDriver(pool, dg, labels, k, s.Cfg.Assembly)
		if err != nil {
			return nil, err
		}
	}
	defer driver.Close() // releases worker-side state in stateful mode
	if ck.Dir != "" {
		driver.EnableCheckpoint(assembly.CheckpointConfig{Dir: ck.Dir, Every: ck.Every})
	}
	driver.SetContext(s.Cfg.Context)
	driver.SetMetrics(s.Cfg.Metrics)
	driver.SetCostModel(s.Cfg.PhaseCosts)
	if s.Cfg.Watchdog.Window > 0 {
		driver.EnableWatchdog(s.Cfg.Watchdog)
	}
	// fail finalizes an aborted run: an interrupted run (cancel, deadline,
	// stall) writes a best-effort checkpoint at the last completed phase
	// boundary so -resume can pick up where it stopped.
	fail := func(err error) (*AssemblyResult, error) {
		if IsInterrupted(err) {
			if cerr := driver.CheckpointNow(); cerr != nil {
				log.Printf("focus: %v", cerr)
			}
		}
		return nil, err
	}
	out := &AssemblyResult{Labels: labels}
	var err error
	t0 := time.Now()
	if s.Cfg.CallVariants {
		// Variants are read off the graph right after transitive
		// reduction: containment's false-positive-edge removal severs
		// allelic branches (their verification alignments fail at the
		// divergence) and error removal pops the surviving bubbles.
		if err := driver.TrimTransitive(&out.Trim); err != nil {
			return fail(err)
		}
		out.Variants, err = driver.CallVariants(s.Cfg.Variants)
		if err != nil {
			return fail(err)
		}
		if err := driver.TrimContainment(&out.Trim); err != nil {
			return fail(err)
		}
		err = driver.TrimErrors(&out.Trim)
	} else {
		out.Trim, err = driver.Trim()
	}
	out.TrimTime = time.Since(t0)
	if err != nil {
		return fail(err)
	}
	t0 = time.Now()
	out.Paths, out.TraverseTaskTimes, err = driver.TraverseTimed()
	out.TraverseTime = time.Since(t0)
	if err != nil {
		return fail(err)
	}
	out.Contigs = driver.BuildContigs(out.Paths)
	out.Stats = assembly.ComputeStats(out.Contigs)
	return out, nil
}

// Assemble is the one-call pipeline: preprocess, align, build graphs,
// partition into k, trim and traverse on `workers` in-process RPC
// workers, and return contigs.
func Assemble(raw []Read, cfg Config, k, workers int) (*AssemblyResult, *Stages, error) {
	ctx, stop := cfg.RunContext()
	defer stop()
	cfg.Context = ctx
	s, err := BuildStages(raw, cfg)
	if err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	pool, err := dist.NewLocalPoolOpts(workers, assembly.NewService, cfg.Dist)
	if err != nil {
		return nil, nil, err
	}
	defer pool.Close()
	res, err := s.Assemble(pool, k, workers, 1)
	if err != nil {
		return nil, nil, err
	}
	return res, s, nil
}

// AssembleOnPool is Assemble against an externally managed pool (e.g. TCP
// workers started with cmd/focus-worker).
func AssembleOnPool(raw []Read, cfg Config, k int, pool *dist.Pool) (*AssemblyResult, *Stages, error) {
	ctx, stop := cfg.RunContext()
	defer stop()
	cfg.Context = ctx
	s, err := BuildStages(raw, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Assemble(pool, k, pool.Size(), 1)
	if err != nil {
		return nil, nil, err
	}
	return res, s, nil
}
