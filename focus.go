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
// intermediate artifacts a run keeps (overlap records, hybrid graph set,
// directed hybrid graph). The overlap graph and the multilevel set are
// built only to choose the hybrid set's representatives and are dropped
// once it is built; the paper's experiments rebuild them on demand
// (Stages.MultilevelSet).
package focus

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"strings"
	"sync"
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
	// Subsets is the number of read subsets the alignment is cut into
	// (paper §II.A-B), each indexed once. The overlap records, and so the
	// contigs, are the same at any count.
	Subsets  int
	Overlap  overlap.Config
	Coarsen  coarsen.Options
	Hybrid   hybrid.Config
	Assembly assembly.Config
	// GraphWorkers has no effect: the overlap graph has one serial
	// writer. It stays only because the frozen benchmark harness reads
	// it; the next benchmark change removes it.
	GraphWorkers int
	// Dist configures the worker pool's fault tolerance (the per-call
	// deadline override, eviction thresholds, reconnect backoff) for pools
	// the pipeline creates itself (Assemble). The zero value watches every
	// call by the liveness rule: a call is cut when its worker falls
	// silent, however long it runs.
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
	// context from Context at start, and every stage and phase runs under
	// it. Callers driving Stages manually apply it with RunContext.
	Deadline time.Duration
	// Metrics, when set, receives the run's operational metrics (re-host /
	// degradation counters, per-phase latency histograms). A resident
	// master shares one registry across every job it hosts. Nil disables
	// instrumentation.
	Metrics *metrics.Registry
}

// ErrDeadline is the cancellation cause installed when Config.Deadline
// expires.
var ErrDeadline = errors.New("focus: run deadline exceeded")

// ErrCheckpointFrames refuses a fresh run (Checkpoint.Resume off) whose
// Checkpoint.Dir already holds checkpoint frames: the run would write its
// own frames beside them, and a later resume would load whichever frame
// is newest, possibly another run's graph.
var ErrCheckpointFrames = errors.New("focus: checkpoint directory holds another run's frames")

// CheckpointInputError refuses a resume (Checkpoint.Resume) whose frames
// in Dir were written for other reads or another configuration: resuming
// them would assemble the other input's graph. Frames and Run are the
// frames' input fingerprint and this run's.
type CheckpointInputError struct {
	Dir         string
	Frames, Run uint64
}

func (e *CheckpointInputError) Error() string {
	return fmt.Sprintf("focus: checkpoint %s holds frames of another input (fingerprint %016x, this run %016x): resume them with the reads and configuration that wrote them, or checkpoint into an empty directory", e.Dir, e.Frames, e.Run)
}

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
// cancel or run deadline — rather than a pipeline failure. An interrupted
// run with checkpointing enabled leaves a resumable checkpoint behind.
func IsInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrDeadline)
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
// serializes its graph, labels and phase counters into an atomic,
// CRC-framed checkpoint file at every phase boundary; with Resume also
// set, Stages.Assemble restarts from the newest valid checkpoint in Dir
// (skipping the phases it records) instead of rebuilding the assembly
// graph, and produces output identical to an uninterrupted run.
type Checkpoint struct {
	// Dir receives checkpoint files; empty disables checkpointing. With
	// Resume off, Dir must hold no checkpoint frames (ErrCheckpointFrames).
	Dir string
	// Resume restarts from the newest valid checkpoint in Dir. When Dir
	// holds no checkpoint at all the run starts fresh; when it holds only
	// corrupt ones the run fails loudly rather than silently restarting.
	Resume bool
}

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
	return cfg
}

// Stages holds the pipeline artifacts a run keeps: what Assemble reads,
// and the records the paper's experiments rebuild the overlap graph and
// the multilevel set from (MultilevelSet). Neither graph is kept: both are
// dropped once the hybrid set is built.
type Stages struct {
	Cfg      Config
	Reads    []Read // preprocessed reads; index = overlap graph node id
	PreStats preprocess.Stats
	// Records are the overlap records in the overlap stage's order: each
	// canonical (A < B), sorted by (A, B).
	Records []overlap.Record
	Hyb     *hybrid.Hybrid
	// DiGraph is the directed hybrid graph as built, the template every
	// Assemble call clones: Stages never trims it, so it stays valid for
	// any number of calls, concurrent ones included.
	DiGraph *assembly.DiGraph
	Timings map[string]time.Duration
	// bisection is the recursive-bisection prefix Assemble shares across
	// k. BuildStages sets it; a Stages built by hand has none and
	// partitions fresh.
	bisection *bisectionSlot
}

// bisectionSlot holds the one partition.Bisection Assemble reuses. A
// Stages copied by value shares the slot, and the slot replaces a
// bisection of another set or seed, so every Stages that shares it
// partitions its own set.
type bisectionSlot struct {
	mu sync.Mutex
	b  *partition.Bisection
}

// get returns the bisection of set under opt: the slot's if it is one,
// else a new one that the slot keeps. A nil slot returns a throwaway.
func (slot *bisectionSlot) get(set *graph.Set, opt partition.Options) *partition.Bisection {
	if slot == nil {
		return partition.NewBisection(set, opt)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.b == nil || !slot.b.For(set, opt) {
		slot.b = partition.NewBisection(set, opt)
	}
	return slot.b
}

// BuildStages runs the pipeline through directed hybrid graph construction.
// With Config.Context set, every stage is cancellation-bounded and the
// first canceled stage aborts the build with the context's cause.
func BuildStages(raw []Read, cfg Config) (*Stages, error) {
	return buildStages(raw, cfg, func(ctx context.Context, reads []Read) ([]overlap.Record, error) {
		return overlap.FindOverlapsCtx(ctx, reads, cfg.subsets(), cfg.Overlap)
	})
}

// BuildStagesOnPool is BuildStages: the pool is not used, and alignment
// runs on the master's cores.
//
// Deprecated: only the frozen benchmark harness calls it; use BuildStages
// and pass the pool to Stages.Assemble.
func BuildStagesOnPool(raw []Read, cfg Config, _ *dist.Pool) (*Stages, error) {
	return BuildStages(raw, cfg)
}

// BuildStagesFromRecords is BuildStages with the overlap-detection stage
// (the pipeline's dominant cost) replaced by precomputed records, e.g. the
// Records of an earlier Stages. Preprocessing is deterministic, so the
// records of one run apply to a later run over the same input and config;
// numReads (the read count the records were computed over) is validated
// against the preprocessed read count (that check is all
// Timings["overlap"] covers). Records in any order are accepted: the
// Stages keeps them in the overlap stage's order, as a sorted copy if they
// were not (the graph stage makes it, overlap.BuildGraphCanonical), and
// the caller's slice is never changed.
func BuildStagesFromRecords(raw []Read, records []overlap.Record, numReads int, cfg Config) (*Stages, error) {
	return buildStages(raw, cfg, func(_ context.Context, reads []Read) ([]overlap.Record, error) {
		if len(reads) != numReads {
			return nil, fmt.Errorf("records were built for %d reads, preprocessing produced %d (input or config changed)", numReads, len(reads))
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
// stops the build at the next boundary. G0 and the multilevel set are
// locals, dropped once the hybrid set is built: the digraph stage and
// every Assemble run without them.
func buildStages(raw []Read, cfg Config, findOverlaps func(ctx context.Context, reads []Read) ([]overlap.Record, error)) (*Stages, error) {
	ctx := cfg.Context
	s := &Stages{Cfg: cfg, Timings: map[string]time.Duration{}, bisection: &bisectionSlot{}}
	var g0 *graph.Graph
	var mset *graph.Set
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
			g0, s.Records, err = overlap.BuildGraphCanonical(ctx, len(s.Reads), s.Records)
			return err
		}},
		{"coarsen", func() (err error) {
			mset, err = coarsen.MultilevelCtx(ctx, g0, cfg.Coarsen)
			return err
		}},
		{"hybrid", func() (err error) {
			s.Hyb, err = hybrid.BuildCtx(ctx, mset, s.Reads, s.Records, cfg.Hybrid)
			g0, mset = nil, nil // the hybrid set aliases neither
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

// partitionOptions are the paper's partitioner options for k parts.
func partitionOptions(k, procs int, seed int64) partition.Options {
	opt := partition.DefaultOptions(k)
	opt.Procs = procs
	opt.Seed = seed
	return opt
}

// PartitionHybrid partitions the hybrid graph set (the paper's
// knowledge-enriched scheme, §III) into k parts and returns the result
// with its wall-clock time. It bisects from scratch, so its time is the
// whole partitioner's at k.
func (s *Stages) PartitionHybrid(k, procs int, seed int64) (*partition.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := partition.PartitionSetCtx(s.Cfg.Context, s.Hyb.Set, partitionOptions(k, procs, seed))
	return res, time.Since(t0), err
}

// MultilevelSet rebuilds the overlap graph G0 and the multilevel set
// {G0…Gn} (paper §II.C) from Records with Cfg.Coarsen, under Cfg.Context.
// A run keeps neither once the hybrid set is built; only the paper's
// experiments read them, and they pay for the rebuild. Construction and
// coarsening are deterministic, so the set is the one the hybrid set was
// chosen from.
func (s *Stages) MultilevelSet() (*graph.Set, error) {
	g0, err := overlap.BuildGraphParCtx(s.Cfg.Context, len(s.Reads), s.Records, 0)
	if err != nil {
		return nil, err
	}
	return coarsen.MultilevelCtx(s.Cfg.Context, g0, s.Cfg.Coarsen)
}

// PartitionMultilevel partitions the full multilevel graph set (the
// paper's naive baseline) into k parts, bisecting from scratch. The set
// is rebuilt first (MultilevelSet); the duration is the partitioner's
// alone.
func (s *Stages) PartitionMultilevel(k, procs int, seed int64) (*partition.Result, time.Duration, error) {
	set, err := s.MultilevelSet()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := partition.PartitionSetCtx(s.Cfg.Context, set, partitionOptions(k, procs, seed))
	return res, time.Since(t0), err
}

// partitionShared is PartitionHybrid on the Stages' shared bisection
// prefix: the bisection steps an earlier call at any k completed are not
// run again. Labels are those of PartitionHybrid.
func (s *Stages) partitionShared(k, procs int, seed int64) (*partition.Result, error) {
	opt := partitionOptions(k, procs, seed)
	return s.bisection.get(s.Hyb.Set, opt).Partition(s.Cfg.Context, opt)
}

// HybridCuts returns the edge cut of a hybrid partitioning measured on the
// hybrid graph G'0 and, after projection through the representatives, on
// the overlap graph G0 (Table II's two columns).
func (s *Stages) HybridCuts(res *partition.Result) (hybridCut, overlapCut int64) {
	return partition.EdgeCut(s.Hyb.G, res.Labels()), s.OverlapCut(s.ReadLabels(res))
}

// OverlapCut is the edge cut of a labelling of the reads on the overlap
// graph G0, read off Records without building G0: an edge of G0 weighs its
// records' summed Len, so the cut is that sum over the records whose reads
// carry different labels. (G0 stores a weight saturated at math.MaxInt32;
// a sum of alignment lengths of two reads never comes near it.)
func (s *Stages) OverlapCut(readLabels []int32) int64 {
	var cut int64
	for _, r := range s.Records {
		if readLabels[r.A] != readLabels[r.B] {
			cut += int64(r.Len)
		}
	}
	return cut
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
	Labels       []int32 // hybrid-node partition labels used
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
// repeatedly with different k on the same Stages, also concurrently; the
// calls share one recursive-bisection prefix, so a k-sweep bisects each
// step once.
//
// With Config.Checkpoint.Resume set, the assembly graph, partitioning and
// already-completed phases are restored from the newest valid checkpoint
// in Config.Checkpoint.Dir instead of being recomputed; the remaining
// phases run normally and the final output matches an uninterrupted run.
// Frames written for other reads or another configuration fail the call
// with a *CheckpointInputError before any phase runs. Without Resume, a
// Dir that already holds frames fails the call with ErrCheckpointFrames
// before any phase runs.
func (s *Stages) Assemble(pool *dist.Pool, k, procs int, seed int64) (*AssemblyResult, error) {
	var driver *assembly.Driver
	var labels []int32
	ck := s.Cfg.Checkpoint
	var input uint64 // the fingerprint every frame of this run carries
	if ck.Dir != "" {
		input = s.fingerprint()
	}
	if !ck.Resume && ck.Dir != "" {
		switch _, _, _, err := checkpoint.Latest(ck.Dir, assembly.CheckpointVersion); {
		case err == nil || errors.Is(err, checkpoint.ErrCorrupt):
			return nil, fmt.Errorf("%w: %s (continue them with -resume, or checkpoint into an empty directory)", ErrCheckpointFrames, ck.Dir)
		case !errors.Is(err, checkpoint.ErrNone):
			return nil, fmt.Errorf("focus: checkpoint: %w", err)
		}
	}
	if ck.Resume && ck.Dir != "" {
		cs, err := assembly.LoadLatestCheckpoint(ck.Dir)
		switch {
		case err == nil:
			if cs.Fingerprint != input {
				return nil, &CheckpointInputError{Dir: ck.Dir, Frames: cs.Fingerprint, Run: input}
			}
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
			res, err := s.partitionShared(k, procs, seed)
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
		driver.EnableCheckpoint(ck.Dir, input)
	}
	driver.SetContext(s.Cfg.Context)
	driver.SetMetrics(s.Cfg.Metrics)
	out := &AssemblyResult{Labels: labels}
	var err error
	t0 := time.Now()
	out.Trim, err = driver.Trim()
	out.TrimTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	out.Paths, out.TraverseTaskTimes, err = driver.TraverseTimed()
	out.TraverseTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	out.Contigs = driver.BuildContigs(out.Paths)
	out.Stats = assembly.ComputeStats(out.Contigs)
	return out, nil
}

// fingerprint identifies the assembly's input in its checkpoint frames:
// the preprocessed reads and every setting that shapes the contigs.
// Subsets (the records are the same at any count), the ignored
// Assembly.Stateful and the worker, distribution, checkpoint and run
// settings are left out, so a resume may change them.
func (s *Stages) fingerprint() uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	cfg := s.Cfg
	asm := cfg.Assembly
	asm.Stateful = false
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v|%+v|", cfg.Preprocess, cfg.Overlap, cfg.Coarsen, cfg.Hybrid, asm)
	var n []byte
	for _, r := range s.Reads {
		n = binary.AppendUvarint(n[:0], uint64(len(r.Seq)))
		h.Write(n)
		h.Write(r.Seq)
	}
	return h.Sum64()
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
// workers started with cmd/focus-worker), partitioning with seed.
func AssembleOnPool(raw []Read, cfg Config, k int, pool *dist.Pool, seed int64) (*AssemblyResult, *Stages, error) {
	ctx, stop := cfg.RunContext()
	defer stop()
	cfg.Context = ctx
	s, err := BuildStages(raw, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Assemble(pool, k, pool.Size(), seed)
	if err != nil {
		return nil, nil, err
	}
	return res, s, nil
}
