package partition

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"focus/internal/graph"
	"focus/internal/metrics"
	"focus/internal/par"
)

// Result is a k-way partitioning of every level of a graph set.
type Result struct {
	K int
	// LevelLabels[i][v] is the partition (0..K-1) of node v at set level
	// i; LevelLabels[0] is the finest level.
	LevelLabels [][]int32
	// StepTaskTimes[s][r] is the measured duration of bisecting region r
	// at recursive-bisection step s; KWayTimes[i] is the duration of the
	// global k-way refinement of level i. Together they describe the
	// algorithm's task graph: steps are barriers, tasks within a step
	// are independent (paper §IV.C's 2^i-way natural parallelism).
	StepTaskTimes [][]time.Duration
	KWayTimes     []time.Duration
}

// SimulatedMakespan projects the measured task times onto p processors:
// within each bisection step the 2^s region tasks are LPT-scheduled on p
// processors (steps are barriers), and the per-level k-way refinements
// are scheduled the same way. This reproduces the paper's speedup
// experiment (Fig. 4) even on hosts with fewer cores than the paper's
// cluster; on a large host it closely tracks wall-clock.
func (r *Result) SimulatedMakespan(p int) time.Duration {
	var total time.Duration
	for _, tasks := range r.StepTaskTimes {
		total += metrics.Makespan(tasks, p)
	}
	total += metrics.Makespan(r.KWayTimes, p)
	return total
}

// Labels returns the finest-level labels.
func (r *Result) Labels() []int32 { return r.LevelLabels[0] }

// PartitionSet partitions every level of the set into opt.K parts with
// multilevel recursive bisection (paper §IV): the coarsest graph is
// bisected by greedy growing + KL, the bisection is projected and
// KL-refined down every level, each half is recursively bisected (the
// 2^i regions of step i in parallel, bounded by opt.Procs), and finally
// every level is independently refined by the global k-way KL heuristic.
func PartitionSet(set *graph.Set, opt Options) (*Result, error) {
	return PartitionSetCtx(nil, set, opt)
}

// PartitionSetCtx is PartitionSet bounded by ctx: a cancel abandons the
// bisection at the next region or step boundary (regions already running
// finish their current region — a region is the task grain) and returns
// the context's cause. A nil ctx never cancels.
func PartitionSetCtx(ctx context.Context, set *graph.Set, opt Options) (*Result, error) {
	gate := par.GateFor(ctx)
	if err := set.Validate(); err != nil {
		return nil, err
	}
	k := opt.K
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("partition: k=%d is not a power of two", k)
	}
	steps := 0
	for 1<<steps < k {
		steps++
	}
	if set.Coarsest().NumNodes() < k {
		return nil, fmt.Errorf("partition: coarsest level has %d nodes for k=%d", set.Coarsest().NumNodes(), k)
	}
	procs := opt.Procs
	if procs <= 0 {
		procs = k/2 + 1
	}
	// k/2 regions is the widest concurrent step, but there is no point
	// holding more region slots than cores.
	procs = par.Limit(procs)
	if opt.Balance <= 1 {
		opt.Balance = 1.03
	}

	levels := len(set.Levels)
	res := &Result{K: k, LevelLabels: make([][]int32, levels)}
	maxN := 0
	for i, g := range set.Levels {
		res.LevelLabels[i] = make([]int32, g.NumNodes())
		if g.NumNodes() > maxN {
			maxN = g.NumNodes()
		}
	}

	// One dense scratch per pool worker, sized for the finest level and
	// recycled across the regions and steps that worker runs.
	scratches := make([]*klScratch, procs)
	for step := 0; step < steps; step++ {
		regions := 1 << step
		// Spare processors beyond the region count go to intra-task scan
		// parallelism; the split never changes results.
		width := max(procs/regions, 1)
		taskTimes := make([]time.Duration, regions)
		par.Run(procs, regions, func(wk, r int) {
			if gate.Stopped() {
				return
			}
			if scratches[wk] == nil {
				scratches[wk] = newKLScratch(maxN, 1)
			}
			sc := scratches[wk]
			sc.workers = width
			rng := rand.New(rand.NewSource(opt.Seed + int64(step)*1000 + int64(r)))
			t0 := time.Now()
			bisectRegion(set, res.LevelLabels, int32(r), int32(r+regions), opt, rng, sc)
			taskTimes[r] = time.Since(t0)
		})
		// Steps are barriers: later steps bisect the regions earlier steps
		// created, so a cancel must not proceed with a half-split step.
		if gate.Stopped() {
			return nil, gate.Err()
		}
		res.StepTaskTimes = append(res.StepTaskTimes, taskTimes)
	}

	if !opt.SkipKWay && k > 1 {
		width := max(procs/levels, 1)
		res.KWayTimes = make([]time.Duration, levels)
		par.Run(procs, levels, func(_, i int) {
			if gate.Stopped() {
				return
			}
			t0 := time.Now()
			kWayRefine(set.Levels[i], res.LevelLabels[i], k, opt, width)
			res.KWayTimes[i] = time.Since(t0)
		})
		if gate.Stopped() {
			return nil, gate.Err()
		}
	}
	return res, nil
}

// loadLabel/storeLabel annotate the cross-region label traffic of one
// bisection step for the race detector. Disjoint regions share the
// per-level label arrays: each region's goroutine writes only its own
// region's entries, but membership scans and KL gain scans read
// neighbours that another region may be relabeling concurrently. Those
// reads are decision-stable — a concurrent write flips a foreign label
// between r' and r'+regions, neither of which the reader matches — but
// the Go memory model still wants the accesses ordered; atomic
// load/store of an int32 compiles to a plain move on the supported
// targets, so this costs nothing.
func loadLabel(l *int32) int32 { return atomic.LoadInt32(l) }

func storeLabel(l *int32, v int32) { atomic.StoreInt32(l, v) }

// bisectRegion splits region r into labels {r, newLabel} on the coarsest
// level and projects + refines the split down to level 0. Labels outside
// the region are never touched, so disjoint regions can run concurrently;
// sc is owned by this region for the duration of the call.
func bisectRegion(set *graph.Set, levelLabels [][]int32, r, newLabel int32, opt Options, rng *rand.Rand, sc *klScratch) {
	top := len(set.Levels) - 1
	for i := top; i >= 0; i-- {
		labels := levelLabels[i]
		if i < top {
			// Project the parent level's split into this level.
			up := set.Up[i]
			parentLabels := levelLabels[i+1]
			for v := range labels {
				if loadLabel(&labels[v]) != r {
					continue
				}
				if loadLabel(&parentLabels[up[v]]) == newLabel {
					storeLabel(&labels[v], newLabel)
				}
				// Parent labeled r (or, after earlier refinements, some
				// other region): node keeps r.
			}
		}
		// If the split has not materialized yet (region too small at
		// coarser levels), start it here.
		countR, countNew := 0, 0
		for v := range labels {
			switch loadLabel(&labels[v]) {
			case r:
				countR++
			case newLabel:
				countNew++
			}
		}
		if countNew == 0 {
			if countR < 2 {
				continue // not splittable at this level yet
			}
			greedyGrow(set.Levels[i], labels, r, newLabel, opt, rng, sc)
		}
		klBisect(set.Levels[i], labels, r, newLabel, opt, sc)
	}
}

// EdgeCut returns the total weight of edges whose endpoints have
// different labels.
func EdgeCut(g *graph.Graph, labels []int32) int64 {
	var cut int64
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Adj(v) {
			if a.To > v && labels[v] != labels[a.To] {
				cut += a.W
			}
		}
	}
	return cut
}

// PartWeights returns the total node weight of each partition.
func PartWeights(g *graph.Graph, labels []int32, k int) []int64 {
	w := make([]int64, k)
	for v := range labels {
		w[labels[v]] += g.NodeWeight(v)
	}
	return w
}

// MapLabels projects labels through a node mapping: out[v] =
// labels[mapOf[v]]. It is used to project a hybrid-graph partitioning
// onto the overlap graph (paper §III: "this partitioning found on the
// hybrid graph can then be simply mapped to the original overlap graph").
func MapLabels(labels []int32, mapOf []int) []int32 {
	out := make([]int32, len(mapOf))
	for v, m := range mapOf {
		out[v] = labels[m]
	}
	return out
}

// Validate checks that labels form a valid partitioning into k parts and
// that every part is non-empty.
func Validate(g *graph.Graph, labels []int32, k int) error {
	if len(labels) != g.NumNodes() {
		return fmt.Errorf("partition: %d labels for %d nodes", len(labels), g.NumNodes())
	}
	seen := make([]bool, k)
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			return fmt.Errorf("partition: node %d has label %d outside [0,%d)", v, l, k)
		}
		seen[l] = true
	}
	for p, s := range seen {
		if !s {
			return fmt.Errorf("partition: part %d empty", p)
		}
	}
	return nil
}
