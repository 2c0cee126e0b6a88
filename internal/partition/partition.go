package partition

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
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
// the context's cause. A nil ctx never cancels. It bisects on a throwaway
// Bisection; a caller partitioning one set at several k keeps one
// Bisection and calls its Partition instead.
func PartitionSetCtx(ctx context.Context, set *graph.Set, opt Options) (*Result, error) {
	return NewBisection(set, opt).Partition(ctx, opt)
}

// Bisection is the recursive-bisection prefix of one graph set: every
// level's labels after the steps completed so far, and each step's task
// times. Step s bisects each of the 2^s regions of step s-1 on its own,
// and k reaches the bisection only through the step count, so the first
// s steps of any k-way partitioning are the bisection for k = 2^s. A
// Bisection computes each step once and serves every k of a sweep;
// Partition is safe for concurrent use.
type Bisection struct {
	set *graph.Set
	key bisectKey

	mu sync.Mutex
	// labels[i][v] is node v's level-i label after len(stepTimes) steps.
	// Step t only relabels region r's nodes between r and r+2^t, so the
	// labels after step s < len(stepTimes) are labels mod 2^s.
	labels    [][]int32
	stepTimes [][]time.Duration
	members   []regionIndex // per level, rebuilt at each step
}

// bisectKey is what a bisection step depends on besides the set: the
// per-region RNG seed, greedy growing's balance bound and KL's early stop.
type bisectKey struct {
	seed      int64
	balance   float64
	earlyStop int
}

func keyOf(opt Options) bisectKey {
	k := bisectKey{seed: opt.Seed, balance: opt.Balance, earlyStop: opt.EarlyStop}
	if k.balance <= 1 {
		k.balance = 1.03
	}
	if k.earlyStop <= 0 {
		k.earlyStop = 50
	}
	return k
}

// NewBisection returns the empty bisection prefix of set under opt's
// Seed, Balance and EarlyStop; its K, Procs and SkipKWay are per call of
// Partition.
func NewBisection(set *graph.Set, opt Options) *Bisection {
	return &Bisection{set: set, key: keyOf(opt)}
}

// For reports whether b is the bisection prefix Partition(ctx, opt) on
// set would compute.
func (b *Bisection) For(set *graph.Set, opt Options) bool {
	return b.set == set && b.key == keyOf(opt)
}

// Steps returns the number of bisection steps b has completed.
func (b *Bisection) Steps() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.stepTimes)
}

// Partition partitions every level of b's set into opt.K parts as
// PartitionSetCtx does, computing only the bisection steps no earlier
// call completed; opt must match b (For). Reused steps report their
// recorded task times. A cancel keeps the steps completed before it.
func (b *Bisection) Partition(ctx context.Context, opt Options) (*Result, error) {
	set := b.set
	if keyOf(opt) != b.key {
		return nil, fmt.Errorf("partition: options %+v do not match the bisection's %+v", keyOf(opt), b.key)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	k := opt.K
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("partition: k=%d is not a power of two", k)
	}
	steps := bits.TrailingZeros(uint(k))
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

	gate := par.GateFor(ctx)
	res := &Result{K: k, LevelLabels: make([][]int32, len(set.Levels))}
	b.mu.Lock()
	err := b.extend(gate, steps, procs, opt)
	if err == nil {
		// Labels after `steps` steps are the deeper prefix's mod k.
		mask := int32(k - 1)
		for i, labels := range b.labels {
			out := make([]int32, len(labels))
			for v, l := range labels {
				out[v] = l & mask
			}
			res.LevelLabels[i] = out
		}
		res.StepTaskTimes = slices.Clone(b.stepTimes[:steps])
	}
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}

	if !opt.SkipKWay && k > 1 {
		levels := len(set.Levels)
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

// extend runs bisection steps len(b.stepTimes) .. steps-1 on b.labels;
// the caller holds b.mu. A cancel abandons the step it lands in and rolls
// that step back, so b keeps only completed steps.
func (b *Bisection) extend(gate *par.Gate, steps, procs int, opt Options) error {
	set := b.set
	if b.labels == nil {
		b.labels = make([][]int32, len(set.Levels))
		b.members = make([]regionIndex, len(set.Levels))
		for i, g := range set.Levels {
			b.labels[i] = make([]int32, g.NumNodes())
			b.members[i].nodes = make([]int32, g.NumNodes())
		}
	}
	if len(b.stepTimes) >= steps {
		return nil
	}
	maxN := 0
	for _, g := range set.Levels {
		maxN = max(maxN, g.NumNodes())
	}
	members := b.members
	// One dense scratch per pool worker, sized for the finest level and
	// recycled across the regions and steps that worker runs.
	scratches := make([]*klScratch, procs)
	for step := len(b.stepTimes); step < steps; step++ {
		regions := 1 << step
		for i := range members {
			members[i].sort(b.labels[i], regions)
		}
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
			sc.rng.Seed(opt.Seed + int64(step)*1000 + int64(r))
			t0 := time.Now()
			bisectRegion(set, b.labels, members, int32(r), int32(r+regions), opt, sc)
			taskTimes[r] = time.Since(t0)
		})
		// Steps are barriers: later steps bisect the regions earlier steps
		// created, so a half-split step must not be kept. It only moved
		// region r's nodes to r+regions, so labels mod regions undo it.
		if gate.Stopped() {
			mask := int32(regions - 1)
			for _, labels := range b.labels {
				for v := range labels {
					labels[v] &= mask
				}
			}
			return gate.Err()
		}
		b.stepTimes = append(b.stepTimes, taskTimes)
	}
	return nil
}

// regionIndex lists one level's nodes by region at the start of a
// bisection step: nodes[off[r]:off[r+1]] are the nodes labelled r, in
// ascending order.
type regionIndex struct {
	nodes []int32
	off   []int
}

// sort is a stable counting sort of the level's nodes by their labels,
// all of which are below regions.
func (x *regionIndex) sort(labels []int32, regions int) {
	if cap(x.off) < regions+1 {
		x.off = make([]int, regions+1)
	}
	off := x.off[:regions+1]
	clear(off)
	for _, l := range labels {
		off[l+1]++
	}
	for r := 1; r <= regions; r++ {
		off[r] += off[r-1]
	}
	for v, l := range labels {
		x.nodes[off[l]] = int32(v)
		off[l]++
	}
	// off[r] now ends region r; shift the ends into starts.
	copy(off[1:], off[:regions])
	off[0] = 0
	x.off = off
}

func (x *regionIndex) of(r int32) []int32 { return x.nodes[x.off[r]:x.off[r+1]] }

// bisectRegion splits region r into labels {r, newLabel} on the coarsest
// level and projects + refines the split down to level 0. members[i]
// lists the level-i nodes of every region as the step began; the region's
// work only visits its own. Labels outside the region are never touched,
// so disjoint regions can run concurrently; sc, its RNG seeded for this
// region, is owned by this region for the duration of the call.
func bisectRegion(set *graph.Set, levelLabels [][]int32, members []regionIndex, r, newLabel int32, opt Options, sc *klScratch) {
	top := len(set.Levels) - 1
	for i := top; i >= 0; i-- {
		labels := levelLabels[i]
		nodes := members[i].of(r)
		if i < top {
			// Project the parent level's split into this level. A parent
			// labelled r (or, after earlier refinements, some other
			// region) leaves the node at r.
			up := set.Up[i]
			parentLabels := levelLabels[i+1]
			for _, v := range nodes {
				if loadLabel(&parentLabels[up[v]]) == newLabel {
					storeLabel(&labels[v], newLabel)
				}
			}
		}
		// If the split has not materialized yet (region too small at
		// coarser levels), start it here.
		countR, countNew := 0, 0
		for _, v := range nodes {
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
			greedyGrow(set.Levels[i], labels, nodes, r, newLabel, opt, sc.rng, sc)
		}
		klBisect(set.Levels[i], labels, nodes, r, newLabel, opt, sc)
	}
}

// EdgeCut returns the total weight of edges whose endpoints have
// different labels.
func EdgeCut(g *graph.Graph, labels []int32) int64 {
	var cut int64
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Adj(v) {
			if int(a.To) > v && labels[v] != labels[a.To] {
				cut += int64(a.W)
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
