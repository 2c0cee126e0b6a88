package main

import (
	"fmt"
	"sync/atomic"
	"time"

	focus "focus"
	"focus/internal/assembly"
	"focus/internal/coarsen"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/hybrid"
	"focus/internal/metrics"
	"focus/internal/overlap"
	"focus/internal/partition"
	"focus/internal/preprocess"
)

// Span names of the replay; the per-layer timings are sums over them.
const (
	spanIteration   = "iteration"
	spanPreprocess  = "preprocess.Run"
	spanOverlap     = "overlap.FindOverlaps"
	spanGraph       = "overlap.BuildGraph"
	spanCoarsen     = "coarsen.Multilevel"
	spanHybrid      = "hybrid.Build"
	spanPoolStart   = "dist.NewLocalPool"
	spanPoolClose   = "dist.Pool.Close"
	spanDiGraph     = "assembly.BuildDiGraph"
	spanPartition   = "partition.PartitionSet"
	spanDriverInit  = "assembly.NewDriver"
	spanTransitive  = "assembly.TrimTransitive"
	spanContainment = "assembly.TrimContainment"
	spanErrors      = "assembly.TrimErrors"
	spanTraverse    = "assembly.TraverseTimed"
	spanContigs     = "assembly.BuildContigs"
	spanDriverClose = "assembly.Driver.Close"
	spanBookkeeping = "bench.bookkeeping"
)

// layerStats collects the per-layer counts of one traced iteration.
type layerStats struct {
	m map[string]float64 // per-layer metric name → value
	// Σ over phases with more than one task of the slowest and of the mean
	// task time; their ratio is assembly.task_skew.
	slowestSum, meanSum float64
	// The preprocessed reads and the overlap records the iteration worked
	// on, kept for the measurements made outside the traced total.
	reads   []dna.Read
	records []overlap.Record
}

// replaySpec describes one pipeline run for the traced replay. It covers
// what focus.BuildStages / BuildStagesOnPool / BuildStagesFromRecords
// followed by Stages.Assemble(k) for each k in ks do.
type replaySpec struct {
	raw []dna.Read
	cfg focus.Config
	ks  []int
	// pool is the standing worker pool; nil starts (and closes) a local
	// pool inside the iteration, as focus.Assemble does.
	pool *dist.Pool
	// alignOnPool distributes the alignment stage over pool.
	alignOnPool bool
	// records, when non-nil, replace the overlap stage; numReads is the
	// preprocessed read count they were computed for.
	records  []overlap.Record
	numReads int
	wire     *atomic.Int64
}

// replay performs the pipeline by calling each layer's public functions
// directly with a span around each call, and returns the contig set of
// every k. Counts it observes at the layer boundaries go into ls.
func replay(tr *tracer, rs replaySpec, ls *layerStats) (sets [][][]byte, err error) {
	cfg := rs.cfg
	ctx := cfg.Context
	root := tr.begin(spanIteration, "bench")
	defer tr.end(root)
	// allocAround runs f inside a span and the MemStats reads around it inside
	// bookkeeping spans, so the stop-the-world reads stay attributed.
	allocAround := func(name, layer string, f func() error) (float64, error) {
		b := tr.begin(spanBookkeeping, "bench")
		a0 := allocatedBytes()
		tr.end(b)
		sp := tr.begin(name, layer)
		err := f()
		tr.end(sp)
		b = tr.begin(spanBookkeeping, "bench")
		a1 := allocatedBytes()
		tr.end(b)
		return float64(a1-a0) / mb, err
	}

	sp := tr.begin(spanPreprocess, "preprocess")
	reads, pst, err := preprocess.Run(rs.raw, cfg.Preprocess)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	ls.m["preprocess.reads_in"] = float64(pst.Input)
	ls.m["preprocess.reads_out"] = float64(pst.Output)

	var calls0 int64
	var health0 dist.HealthSnapshot
	if rs.pool != nil {
		calls0 = rs.pool.Completions()
		health0 = rs.pool.Health()
	}

	records := rs.records
	if records == nil {
		subsets := max(cfg.Subsets, 1)
		w0 := rs.wire.Load()
		ls.m["overlap.alloc_mb"], err = allocAround(spanOverlap, "overlap", func() (err error) {
			if rs.alignOnPool {
				records, err = overlap.FindOverlapsDistributedCtx(ctx, rs.pool, reads, subsets, cfg.Overlap)
			} else {
				records, err = overlap.FindOverlapsCtx(ctx, reads, subsets, cfg.Overlap)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("overlap: %w", err)
		}
		ls.m["dist.wire_bytes_align"] = float64(rs.wire.Load() - w0)
		ls.m["overlap.records"] = float64(len(records))
	} else if len(reads) != rs.numReads {
		return nil, fmt.Errorf("records were built for %d reads, preprocessing produced %d", rs.numReads, len(reads))
	}
	ls.reads, ls.records = reads, records
	wirePhases0 := rs.wire.Load()

	sp = tr.begin(spanGraph, "graph")
	g0, err := overlap.BuildGraphParCtx(ctx, len(reads), records, cfg.GraphWorkers)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	ls.m["graph.nodes"] = float64(g0.NumNodes())
	ls.m["graph.edges"] = float64(g0.NumEdges())

	sp = tr.begin(spanCoarsen, "coarsen")
	mset, err := coarsen.MultilevelCtx(ctx, g0, cfg.Coarsen)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("coarsen: %w", err)
	}
	ls.m["coarsen.levels"] = float64(len(mset.Levels))
	ls.m["coarsen.coarsest_nodes"] = float64(mset.Coarsest().NumNodes())

	var hyb *hybrid.Hybrid
	ls.m["hybrid.alloc_mb"], err = allocAround(spanHybrid, "hybrid", func() (err error) {
		hyb, err = hybrid.BuildCtx(ctx, mset, reads, records, cfg.Hybrid)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	ls.m["hybrid.nodes"] = float64(len(hyb.Nodes))

	pool := rs.pool
	if pool == nil {
		sp = tr.begin(spanPoolStart, "dist")
		pool, err = dist.NewLocalPoolOpts(nproc, assembly.NewService, cfg.Dist)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
		defer func() {
			sp := tr.begin(spanPoolClose, "dist")
			cerr := pool.Close()
			tr.end(sp)
			if err == nil && cerr != nil {
				err = fmt.Errorf("pool close: %w", cerr)
			}
		}()
	}

	for _, k := range rs.ks {
		contigs, err := replayAssemble(tr, cfg, pool, hyb, records, k, ls)
		if err != nil {
			return nil, fmt.Errorf("assemble k=%d: %w", k, err)
		}
		sets = append(sets, contigs)
	}

	h := pool.Health()
	ls.m["dist.rpc_calls"] = float64(pool.Completions() - calls0)
	ls.m["dist.wire_bytes_phases"] = float64(rs.wire.Load() - wirePhases0)
	ls.m["dist.evictions"] = float64(h.Evictions - health0.Evictions)
	ls.m["dist.reconnects"] = float64(h.Reconnects - health0.Reconnects)
	ls.m["dist.kicks"] = float64(h.Kicks - health0.Kicks)
	if ls.meanSum > 0 {
		ls.m["assembly.task_skew"] = ls.slowestSum / ls.meanSum
	}
	return sets, nil
}

// replayAssemble is Stages.Assemble(pool, k, nproc, 1) without
// checkpointing, variants or a watchdog (no workload arms them).
func replayAssemble(tr *tracer, cfg focus.Config, pool *dist.Pool, hyb *hybrid.Hybrid,
	records []overlap.Record, k int, ls *layerStats) ([][]byte, error) {
	ctx := cfg.Context
	sp := tr.begin(spanDiGraph, "assembly")
	dg, err := assembly.BuildDiGraph(hyb, records)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("digraph: %w", err)
	}
	labels := make([]int32, dg.NumNodes())
	if k > 1 {
		opt := partition.DefaultOptions(k)
		opt.Procs = nproc
		opt.Seed = 1
		sp = tr.begin(spanPartition, "partition")
		res, err := partition.PartitionSetCtx(ctx, hyb.Set, opt)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		labels = res.Labels()
	}
	if k == 16 {
		sp = tr.begin(spanBookkeeping, "bench")
		ls.m["partition.edge_cut_k16"] = float64(partition.EdgeCut(hyb.G, labels))
		var heaviest, total int64
		for _, w := range partition.PartWeights(hyb.G, labels, k) {
			heaviest = max(heaviest, w)
			total += w
		}
		ls.m["partition.imbalance_k16"] = float64(heaviest) * float64(k) / float64(total)
		tr.end(sp)
	}

	sp = tr.begin(spanDriverInit, "assembly")
	driver, err := assembly.NewDriver(pool, dg, labels, k, cfg.Assembly)
	if err == nil {
		driver.SetContext(ctx)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = driver.Close() // error path: the phase error is what is reported
		}
	}()

	var st assembly.TrimStats
	var traverseTimes []time.Duration
	var paths [][]int32
	phases := []struct {
		span  string
		run   func() error
		tasks func() []time.Duration
	}{
		{spanTransitive, func() error { return driver.TrimTransitive(&st) }, func() []time.Duration { return st.PhaseTaskTimes[0] }},
		{spanContainment, func() error { return driver.TrimContainment(&st) }, func() []time.Duration { return st.PhaseTaskTimes[1] }},
		{spanErrors, func() error { return driver.TrimErrors(&st) }, func() []time.Duration { return st.PhaseTaskTimes[2] }},
		{spanTraverse, func() (err error) { paths, traverseTimes, err = driver.TraverseTimed(); return err }, func() []time.Duration { return traverseTimes }},
	}
	for _, ph := range phases {
		sp = tr.begin(ph.span, "assembly")
		err := ph.run()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tasks := ph.tasks()
		var sum, longest time.Duration
		for _, d := range tasks {
			sum += d
			longest = max(longest, d)
		}
		ls.m["assembly.task_s_sum"] += sum.Seconds()
		if len(tasks) > 1 {
			ls.slowestSum += longest.Seconds()
			ls.meanSum += sum.Seconds() / float64(len(tasks))
		}
		// What the phase cost beyond the best schedule of its tasks on the
		// workers: ship, encode, decode, schedule, merge.
		// LPT is not the optimal schedule, so the difference is floored at 0.
		ls.m["dist.overhead_s"] += max(0, tr.spans[sp].dur()-metrics.Makespan(tasks, nproc)).Seconds()
	}
	ls.m["assembly.transitive_removed"] += float64(st.TransitiveEdges)
	ls.m["assembly.contained_removed"] += float64(st.ContainedNodes)
	ls.m["assembly.false_edges_removed"] += float64(st.FalseEdges)
	ls.m["assembly.deadend_removed"] += float64(st.DeadEndNodes)

	sp = tr.begin(spanContigs, "assembly")
	contigs := driver.BuildContigs(paths)
	assembly.ComputeStats(contigs)
	tr.end(sp)

	sp = tr.begin(spanDriverClose, "assembly")
	err = driver.Close()
	closed = true
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("driver close: %w", err)
	}
	return contigs, nil
}
