// Package hybrid builds the hybrid graph set G' = {G'0 … G'n} of paper
// §II.D and §III. A best representative node is a node selected from the
// most reduced multilevel graph possible whose read cluster assembles into
// one contiguous contig; the hybrid graph G'0 contains all best
// representatives. Partitioning G'0's set instead of the full multilevel
// set is the paper's mechanism for injecting the linearity of DNA into the
// partitioner.
package hybrid

import (
	"context"
	"fmt"
	"slices"

	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/overlap"
	"focus/internal/par"
)

// Node is one hybrid-graph node: a best-representative read cluster.
type Node struct {
	// Level is the multilevel graph level the representative was selected
	// from (0 = a single read).
	Level int
	// Members are the overlap-graph (G0) node ids in the cluster.
	Members []int
	// Contig is the consensus sequence assembled from the cluster layout.
	Contig []byte
	// Offsets[i] is the layout position of Members[i] within Contig.
	Offsets []int
}

// Hybrid is the hybrid graph plus its coarsening set and provenance.
type Hybrid struct {
	Nodes []Node
	// RepOf maps each G0 node to its hybrid node index.
	RepOf []int
	// G is the hybrid graph G'0 (undirected, edge weights = summed
	// crossing overlap lengths), the graph the distributed assembly
	// algorithms run on.
	G *graph.Graph
	// Set is the hybrid graph set {G'0 … G'n} used for partitioning; its
	// level 0 is G itself, not a second contraction.
	Set *graph.Set
}

// Config controls linearity testing.
type Config struct {
	// PosTolerance is the max disagreement (bases) between two layout
	// position estimates of the same read before the cluster is declared
	// non-linear (e.g. collapsed repeats).
	PosTolerance int
	// RequireOverlap guards against chimeric layouts across exact repeat
	// copies: any two cluster reads whose layout implies an overlap of at
	// least this many bases must be connected by an actual overlap
	// record, otherwise the cluster is rejected. Slightly above the
	// overlap acceptance threshold so sparse seed sampling does not cause
	// spurious rejections.
	RequireOverlap int
}

// DefaultConfig returns the default linearity tolerances.
func DefaultConfig() Config { return Config{PosTolerance: 5, RequireOverlap: 65} }

// Build selects best representatives top-down through the multilevel set
// and assembles the hybrid graph set. reads are the preprocessed reads
// backing G0 (= mset.Levels[0]); recs are the overlap records.
func Build(mset *graph.Set, reads []dna.Read, recs []overlap.Record, cfg Config) (*Hybrid, error) {
	return BuildCtx(nil, mset, reads, recs, cfg)
}

// BuildCtx is Build bounded by ctx: a cancel abandons the layout sweep at
// the next per-cluster boundary (and the contractions at their chunk
// boundaries) and returns the context's cause. A nil ctx never cancels.
func BuildCtx(ctx context.Context, mset *graph.Set, reads []dna.Read, recs []overlap.Record, cfg Config) (*Hybrid, error) {
	h, _, err := build(ctx, mset, reads, recs, cfg, 0)
	return h, err
}

// build is BuildCtx with the per-cluster layout pool (each worker owns its
// own layoutScratch), the incidence fill and the contractions bounded by
// workers (<= 0 lets the par governor size them). The output is identical
// at any width: clusters at one level are disjoint, and representatives
// are committed serially in cluster order after the parallel tests. skipped
// counts the clusters not tested because they hold the same reads as their
// parent, which failed.
func build(ctx context.Context, mset *graph.Set, reads []dna.Read, recs []overlap.Record, cfg Config, workers int) (h *Hybrid, skipped int, err error) {
	gate := par.GateFor(ctx)
	if err := mset.Validate(); err != nil {
		return nil, 0, err
	}
	g0 := mset.Levels[0]
	if g0.NumNodes() != len(reads) {
		return nil, 0, fmt.Errorf("hybrid: %d reads for %d graph nodes", len(reads), g0.NumNodes())
	}
	if cfg.PosTolerance <= 0 {
		cfg.PosTolerance = DefaultConfig().PosTolerance
	}
	if cfg.RequireOverlap <= 0 {
		cfg.RequireOverlap = DefaultConfig().RequireOverlap
	}

	rk, err := rankClusters(mset)
	if err != nil {
		return nil, 0, err
	}
	inc, err := buildIncidence(rk.start[0], recs, workers)
	if err != nil {
		return nil, 0, err
	}

	n0 := g0.NumNodes()
	levels := len(mset.Levels)
	h = &Hybrid{RepOf: make([]int, n0)}
	for v := range h.RepOf {
		h.RepOf[v] = -1
	}

	// Top-down selection: coarsest level first. Within one level the
	// clusters are disjoint, so their layout tests are embarrassingly
	// parallel: candidates fan out over a bounded pool (one layoutScratch
	// per worker), then accepted representatives are committed serially
	// in cluster order so node numbering — and therefore the whole hybrid
	// graph — is identical at any worker count.
	width := par.Limit(workers)
	scratches := make([]*layoutScratch, width)
	type layoutResult struct {
		node Node
		ok   bool
	}
	var cands []int32
	var results []layoutResult
	for level := levels - 1; level >= 0; level-- {
		start, size := rk.start[level], rk.size[level]
		cands = cands[:0]
		for c := range start {
			if h.RepOf[rk.perm[start[c]]] != -1 {
				continue // already covered by a higher-level representative
			}
			// An uncovered cluster with as many reads as its parent holds
			// exactly the parent's reads, and the parent failed the test.
			if level+1 < levels && size[c] == rk.size[level+1][mset.Up[level][c]] {
				skipped++
				continue
			}
			cands = append(cands, int32(c))
		}
		if cap(results) < len(cands) {
			results = make([]layoutResult, len(cands))
		}
		results = results[:len(cands)]
		// A layout test touches a whole cluster; a handful per worker
		// already pays for the fan-out, so the grain is small.
		w := par.Workers(workers, len(cands), 64)
		for p := 0; p < w; p++ {
			if scratches[p] == nil {
				scratches[p] = &layoutScratch{reads: reads, perm: rk.perm, inc: inc, cfg: cfg}
			}
		}
		par.Run(w, len(cands), func(p, i int) {
			if gate.Stopped() {
				return
			}
			lo := int(start[cands[i]])
			node, ok := scratches[p].tryLayout(lo, lo+int(size[cands[i]]), level)
			results[i] = layoutResult{node, ok}
		})
		if gate.Stopped() {
			return nil, 0, gate.Err()
		}
		for i := range cands {
			if !results[i].ok {
				continue // not linear; descend to children
			}
			id := len(h.Nodes)
			h.Nodes = append(h.Nodes, results[i].node)
			for _, m := range results[i].node.Members {
				h.RepOf[m] = id
			}
		}
	}
	// Level-0 singletons are always linear, so everything is covered.
	for v, r := range h.RepOf {
		if r == -1 {
			return nil, 0, fmt.Errorf("hybrid: node %d uncovered (internal error)", v)
		}
	}

	// Hybrid graph G'0: contract G0 by RepOf. Node weights are the cluster
	// sizes (read counts), set explicitly rather than summed from G0.
	nw := make([]int64, len(h.Nodes))
	for i, n := range h.Nodes {
		nw[i] = int64(len(n.Members))
	}
	h.G, err = graph.ContractWithWeightsCtx(ctx, g0, h.RepOf, nw, width)
	if err != nil {
		return nil, 0, err
	}

	// Hybrid graph set: at level i, nodes of Gi whose cluster belongs to a
	// representative chosen at level >= i collapse into that
	// representative; the rest stay as themselves (paper Fig. 1B).
	h.Set, err = buildHybridSet(ctx, mset, rk, h, width)
	if err != nil {
		return nil, 0, err
	}
	return h, skipped, nil
}

// ranks orders the G0 nodes so that every node of every multilevel level
// is one contiguous range of ranks: the coarsest level's nodes in id
// order, and within each node its children in id order, recursively.
// A cluster test then names its reads by a range, and membership is a
// range test instead of an n0-sized bitmap.
type ranks struct {
	perm  []int32   // perm[r] = G0 node at rank r
	start [][]int32 // start[i][c] = first rank of level-i node c; start[0] ranks G0
	size  [][]int32 // size[i][c] = G0 nodes under level-i node c
}

// rankClusters sizes every level's nodes bottom-up through mset.Up, then
// places them top-down: one stable counting sort per level, each node
// taking the next free ranks of its parent's range in child id order.
func rankClusters(mset *graph.Set) (*ranks, error) {
	levels := len(mset.Levels)
	rk := &ranks{start: make([][]int32, levels), size: make([][]int32, levels)}
	for i, g := range mset.Levels {
		rk.size[i] = make([]int32, g.NumNodes())
	}
	for v := range rk.size[0] {
		rk.size[0][v] = 1
	}
	for i, up := range mset.Up {
		for v, p := range up {
			rk.size[i+1][p] += rk.size[i][v]
		}
	}
	for i, size := range rk.size {
		for v, s := range size {
			if s == 0 {
				return nil, fmt.Errorf("hybrid: level %d node %d has no members", i, v)
			}
		}
	}
	top := levels - 1
	rk.start[top] = make([]int32, len(rk.size[top]))
	var next int32
	for c, s := range rk.size[top] {
		rk.start[top][c] = next
		next += s
	}
	for i := top - 1; i >= 0; i-- {
		cursor := slices.Clone(rk.start[i+1])
		start := make([]int32, len(rk.size[i]))
		for v, p := range mset.Up[i] {
			start[v] = cursor[p]
			cursor[p] += rk.size[i][v]
		}
		rk.start[i] = start
	}
	rk.perm = make([]int32, len(rk.start[0]))
	for v, r := range rk.start[0] {
		rk.perm[r] = int32(v)
	}
	return rk, nil
}

// incident is one end of an overlap record seen from a G0 node: the rank of
// the read at the other end and the signed diagonal,
// pos(other) = pos(node) + diag.
type incident struct{ other, diag int32 }

// incidence is the per-node record incidence in one flat array, by rank:
// arcs[off[r]:off[r+1]] are the incidents of the read at rank r in record
// order, so a cluster's incidents are one contiguous run and the layout
// BFS reads a node's neighbours sequentially.
type incidence struct {
	off  []int32
	arcs []incident
}

func (inc *incidence) of(r int) []incident { return inc.arcs[inc.off[r]:inc.off[r+1]] }

// incidenceGrain is the record count below which one more worker does not
// pay for its n-sized count array.
const incidenceGrain = 1 << 16

// buildIncidence counting-sorts both ends of every record by rank (rank[v]
// is G0 node v's rank). Records split into contiguous chunks, one per
// worker: each chunk counts its ends per rank, a prefix over (rank, chunk)
// gives every chunk its write cursors, and each chunk fills in record
// order. A node's incidents therefore stay in record order at any width,
// which fixes the BFS order of every layout test. An invalid record is
// reported by its lowest index.
func buildIncidence(rank []int32, recs []overlap.Record, workers int) (*incidence, error) {
	n := len(rank)
	w := par.Workers(workers, len(recs), incidenceGrain)
	cursor := make([][]int32, w)
	bad := make([]int, w)
	par.Run(w, w, func(_, c int) {
		count := make([]int32, n)
		bad[c] = -1
		lo, hi := par.Split(len(recs), w, c)
		for ri := lo; ri < hi; ri++ {
			r := recs[ri]
			if r.A < 0 || int(r.A) >= n || r.B < 0 || int(r.B) >= n {
				bad[c] = ri
				return
			}
			count[rank[r.A]]++
			count[rank[r.B]]++
		}
		cursor[c] = count
	})
	for _, ri := range bad {
		if ri >= 0 {
			r := recs[ri]
			return nil, fmt.Errorf("hybrid: record %d (%d,%d) out of range [0,%d)", ri, r.A, r.B, n)
		}
	}
	off := make([]int32, n+1)
	for r := 0; r < n; r++ {
		at := off[r]
		for c := range cursor {
			cursor[c][r], at = at, at+cursor[c][r]
		}
		off[r+1] = at
	}
	arcs := make([]incident, off[n])
	par.Run(w, w, func(_, c int) {
		at := cursor[c]
		lo, hi := par.Split(len(recs), w, c)
		for _, r := range recs[lo:hi] {
			a, b := rank[r.A], rank[r.B]
			arcs[at[a]] = incident{b, r.Diag}
			at[a]++
			arcs[at[b]] = incident{a, -r.Diag}
			at[b]++
		}
	})
	return &incidence{off: off, arcs: arcs}, nil
}

// buildHybridSet builds the hybrid set level by level, each level
// contracted from the one below it rather than from the multilevel graph:
// hybrid-set level i is G_i contracted by group_i, and since G_i is G_{i-1}
// contracted by mset.Up[i-1] and every group is a union of whole clusters
// of the level below, that is exactly hybrid-set level i-1 contracted by
// Set.Up[i-1]. Node weights are summed from G_i.
func buildHybridSet(ctx context.Context, mset *graph.Set, rk *ranks, h *Hybrid, workers int) (*graph.Set, error) {
	set := &graph.Set{Levels: []*graph.Graph{h.G}}
	// below[v] = hybrid-set node of level-(i-1) node v; at level 0 every
	// node's representative qualifies, so it is RepOf and set level 0 is
	// G'0 itself (G0's nodes weigh 1, so the summed weights are the
	// cluster sizes): h.G is shared, not rebuilt.
	below := h.RepOf
	repSlot := make([]int, len(h.Nodes))
	for i := 1; i < len(mset.Levels); i++ {
		gi := mset.Levels[i]
		// Slot layout: representatives chosen at level >= i first, in
		// rep-id order, then the surviving plain level-i nodes in id order.
		// group[v] holds v's representative as -1-r until the slots are
		// known.
		group := make([]int, gi.NumNodes())
		for r := range repSlot {
			repSlot[r] = -1
		}
		for v, lo := range rk.start[i] {
			r := h.RepOf[rk.perm[lo]]
			if h.Nodes[r].Level >= i {
				group[v] = -1 - r
				repSlot[r] = 0
			}
		}
		next := 0
		for r, s := range repSlot {
			if s == 0 {
				repSlot[r] = next
				next++
			}
		}
		for v, x := range group {
			if x < 0 {
				group[v] = repSlot[-1-x]
			} else {
				group[v] = next
				next++
			}
		}
		nw := make([]int64, next)
		for v, x := range group {
			nw[x] += gi.NodeWeight(v)
		}
		// Up-map: every level-(i-1) node's hybrid-set node moves to the
		// set node of its multilevel parent (one value per set node).
		up := make([]int, set.Levels[i-1].NumNodes())
		for v, x := range below {
			up[x] = group[mset.Up[i-1][v]]
		}
		ci, err := graph.ContractWithWeightsCtx(ctx, set.Levels[i-1], up, nw, workers)
		if err != nil {
			return nil, err
		}
		set.Levels = append(set.Levels, ci)
		set.Up = append(set.Up, up)
		below = group
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("hybrid: invalid set: %w", err)
	}
	return set, nil
}

// layoutScratch holds reusable state for cluster layout tests. Each
// worker owns exactly one scratch. Its state is cluster-local, indexed by
// rank minus the cluster's first rank: pos, visited and mark grow to the
// largest cluster seen and are reset per test (mark by bumping epoch),
// and the variable-size buffers (queue, order, counts) are truncated and
// reused, so steady-state layout tests allocate only their accepted Node
// results.
type layoutScratch struct {
	reads   []dna.Read
	perm    []int32 // rank -> G0 node
	inc     *incidence
	cfg     Config
	pos     []int
	visited []bool
	queue   []int32    // BFS worklist
	order   []placed   // members sorted by (offset, id)
	mark    []int64    // record-backed partner stamps (epoch-keyed)
	epoch   int64      // current stamp; bumped instead of clearing mark
	counts  [][4]int32 // consensus vote columns
}

// placed is a cluster member (G0 node v, at local rank k) at its normalized
// layout offset.
type placed struct{ v, k, off int }

// tryLayout tests whether the cluster of ranks [lo, hi) is linear (every
// overlap-implied position is consistent and the cluster is one connected
// block) and, if so, assembles its consensus contig. The BFS starts at the
// member with the smallest G0 id and walks each member's incidents in
// record order.
func (s *layoutScratch) tryLayout(lo, hi, level int) (Node, bool) {
	size := hi - lo
	if size == 1 {
		v := int(s.perm[lo])
		return Node{
			Level:   level,
			Members: []int{v},
			Contig:  append([]byte(nil), s.reads[v].Seq...),
			Offsets: []int{0},
		}, true
	}
	members := s.perm[lo:hi]
	s.pos = slices.Grow(s.pos[:0], size)[:size]
	s.visited = slices.Grow(s.visited[:0], size)[:size]
	clear(s.visited)
	if len(s.mark) < size {
		s.mark = append(s.mark, make([]int64, size-len(s.mark))...)
	}

	// BFS position propagation from the smallest G0 id, in local ranks.
	start := 0
	for k, v := range members {
		if v < members[start] {
			start = k
		}
	}
	s.pos[start] = 0
	s.visited[start] = true
	queue := append(s.queue[:0], int32(start))
	head := 0
	ok := true
	for head < len(queue) && ok {
		k := int(queue[head])
		head++
		for _, e := range s.inc.of(lo + k) {
			u := int(e.other) - lo
			if uint(u) >= uint(size) {
				continue // outside the cluster
			}
			p := s.pos[k] + int(e.diag)
			if s.visited[u] {
				d := s.pos[u] - p
				if d < 0 {
					d = -d
				}
				if d > s.cfg.PosTolerance {
					ok = false // inconsistent layout: collapsed repeat
					break
				}
				continue
			}
			s.visited[u] = true
			s.pos[u] = p
			queue = append(queue, int32(u))
		}
	}
	count := len(queue)
	s.queue = queue[:0]
	if !ok || count != size {
		return Node{}, false // inconsistent or disconnected
	}

	// Normalize offsets and check the layout tiles one contiguous block.
	minPos := slices.Min(s.pos)
	order := s.order[:0]
	for k, v := range members {
		order = append(order, placed{int(v), k, s.pos[k] - minPos})
	}
	s.order = order
	slices.SortFunc(order, func(a, b placed) int {
		if a.off != b.off {
			return a.off - b.off
		}
		return a.v - b.v
	})
	end := 0
	for _, p := range order {
		if p.off > end {
			return Node{}, false // gap in coverage
		}
		if e := p.off + len(s.reads[p.v].Seq); e > end {
			end = e
		}
	}

	// Anti-chimera check: every pair whose layout implies a substantial
	// overlap must be backed by a real overlap record. A layout that
	// jumps between copies of an exact repeat places divergent reads on
	// top of each other without evidence; reject it.
	// For each read in layout order, stamp its record-backed partners
	// inside the cluster with a fresh epoch and demand every close pair
	// carry a stamp. The mark array persists across calls; bumping the
	// epoch invalidates old stamps without clearing.
	for i := 0; i < len(order); i++ {
		v := order[i].v
		endI := order[i].off + len(s.reads[v].Seq)
		if i+1 < len(order) && order[i+1].off <= endI-s.cfg.RequireOverlap {
			s.epoch++
			for _, e := range s.inc.of(lo + order[i].k) {
				if u := int(e.other) - lo; uint(u) < uint(size) {
					s.mark[u] = s.epoch
				}
			}
		}
		for j := i + 1; j < len(order); j++ {
			if order[j].off > endI-s.cfg.RequireOverlap {
				break // later reads overlap read i even less
			}
			endJ := order[j].off + len(s.reads[order[j].v].Seq)
			implied := endI
			if endJ < implied {
				implied = endJ
			}
			implied -= order[j].off
			if implied < s.cfg.RequireOverlap {
				continue
			}
			if s.mark[order[j].k] != s.epoch {
				return Node{}, false
			}
		}
	}
	// Consensus by per-column majority vote.
	if cap(s.counts) < end {
		s.counts = make([][4]int32, end)
	}
	counts := s.counts[:end]
	clear(counts)
	for _, p := range order {
		for i, b := range s.reads[p.v].Seq {
			if c, ok := dna.BaseCode(b); ok {
				counts[p.off+i][c]++
			}
		}
	}
	contig := make([]byte, end)
	for i, c := range counts {
		best := 0
		for j := 1; j < 4; j++ {
			if c[j] > c[best] {
				best = j
			}
		}
		if c[best] == 0 {
			contig[i] = 'N'
		} else {
			contig[i] = dna.CodeBase(byte(best))
		}
	}

	node := Node{Level: level, Members: make([]int, len(order)), Offsets: make([]int, len(order)), Contig: contig}
	for i, p := range order {
		node.Members[i] = p.v
		node.Offsets[i] = p.off
	}
	return node, true
}
