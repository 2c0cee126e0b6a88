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
	return build(ctx, mset, reads, recs, cfg, 0)
}

// build is BuildCtx with the per-cluster layout pool (each worker owns its
// own layoutScratch) and the contractions bounded by workers (<= 0 lets
// the par governor size them). The output is identical at any width:
// clusters at one level are disjoint, and representatives are committed
// serially in cluster order after the parallel tests.
func build(ctx context.Context, mset *graph.Set, reads []dna.Read, recs []overlap.Record, cfg Config, workers int) (*Hybrid, error) {
	gate := par.GateFor(ctx)
	if err := mset.Validate(); err != nil {
		return nil, err
	}
	g0 := mset.Levels[0]
	if g0.NumNodes() != len(reads) {
		return nil, fmt.Errorf("hybrid: %d reads for %d graph nodes", len(reads), g0.NumNodes())
	}
	if cfg.PosTolerance <= 0 {
		cfg.PosTolerance = DefaultConfig().PosTolerance
	}
	if cfg.RequireOverlap <= 0 {
		cfg.RequireOverlap = DefaultConfig().RequireOverlap
	}

	inc, err := buildIncidence(len(reads), recs)
	if err != nil {
		return nil, err
	}

	// assign[v] = current node of level L containing G0 node v.
	n0 := g0.NumNodes()
	levels := len(mset.Levels)
	// Cumulative assignment per level.
	assignAt := make([][]int, levels)
	assignAt[0] = make([]int, n0)
	for v := range assignAt[0] {
		assignAt[0][v] = v
	}
	for i := 1; i < levels; i++ {
		assignAt[i] = make([]int, n0)
		for v := 0; v < n0; v++ {
			assignAt[i][v] = mset.Up[i-1][assignAt[i-1][v]]
		}
	}

	h := &Hybrid{RepOf: make([]int, n0)}
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
	scratches[0] = newLayoutScratch(n0, reads, inc, cfg)
	type layoutResult struct {
		node Node
		ok   bool
	}
	var cands [][]int
	var results []layoutResult
	var clusters clustering
	for level := levels - 1; level >= 0; level-- {
		numClusters := mset.Levels[level].NumNodes()
		clusters.group(assignAt[level], numClusters)
		cands = cands[:0]
		for c := 0; c < numClusters; c++ {
			members := clusters.of(c)
			if len(members) == 0 {
				continue
			}
			if h.RepOf[members[0]] != -1 {
				continue // already covered by a higher-level representative
			}
			cands = append(cands, members)
		}
		if cap(results) < len(cands) {
			results = make([]layoutResult, len(cands))
		}
		results = results[:len(cands)]
		// A layout test touches a whole cluster; a handful per worker
		// already pays for the fan-out, so the grain is small.
		w := par.Workers(workers, len(cands), 64)
		for p := 1; p < w; p++ {
			if scratches[p] == nil {
				scratches[p] = newLayoutScratch(n0, reads, inc, cfg)
			}
		}
		par.Run(w, len(cands), func(p, i int) {
			if gate.Stopped() {
				return
			}
			node, ok := scratches[p].tryLayout(cands[i], level)
			results[i] = layoutResult{node, ok}
		})
		if gate.Stopped() {
			return nil, gate.Err()
		}
		for i, members := range cands {
			if !results[i].ok {
				continue // not linear; descend to children
			}
			id := len(h.Nodes)
			h.Nodes = append(h.Nodes, results[i].node)
			for _, m := range members {
				h.RepOf[m] = id
			}
		}
	}
	// Level-0 singletons are always linear, so everything is covered.
	for v, r := range h.RepOf {
		if r == -1 {
			return nil, fmt.Errorf("hybrid: node %d uncovered (internal error)", v)
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
		return nil, err
	}

	// Hybrid graph set: at level i, nodes of Gi whose cluster belongs to a
	// representative chosen at level >= i collapse into that
	// representative; the rest stay as themselves (paper Fig. 1B).
	set, err := buildHybridSet(ctx, mset, assignAt, h, width)
	if err != nil {
		return nil, err
	}
	h.Set = set
	return h, nil
}

// incident is one end of an overlap record seen from a G0 node: the read at
// the other end and the signed diagonal, pos(other) = pos(node) + diag.
type incident struct{ other, diag int32 }

// incidence is the per-node record incidence in one flat array:
// arcs[off[v]:off[v+1]] are v's incidents in record order, so the layout
// BFS reads a node's neighbours sequentially.
type incidence struct {
	off  []int32
	arcs []incident
}

func (inc *incidence) of(v int) []incident { return inc.arcs[inc.off[v]:inc.off[v+1]] }

// buildIncidence counting-sorts both ends of every record by node. The fill
// runs in record order, which fixes the order of each node's incidents and
// with it the BFS order of every layout test.
func buildIncidence(n int, recs []overlap.Record) (*incidence, error) {
	off := make([]int32, n+1)
	for ri, r := range recs {
		if r.A < 0 || int(r.A) >= n || r.B < 0 || int(r.B) >= n {
			return nil, fmt.Errorf("hybrid: record %d (%d,%d) out of range [0,%d)", ri, r.A, r.B, n)
		}
		off[r.A+1]++
		off[r.B+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	arcs := make([]incident, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for _, r := range recs {
		arcs[cursor[r.A]] = incident{r.B, r.Diag}
		cursor[r.A]++
		arcs[cursor[r.B]] = incident{r.A, -r.Diag}
		cursor[r.B]++
	}
	return &incidence{off: off, arcs: arcs}, nil
}

// clustering groups G0 node ids by their node at one level, in one flat
// array whose buffers are reused from level to level.
type clustering struct {
	off     []int32
	members []int
}

// group counting-sorts the G0 nodes by assign (values in [0,numClusters));
// each cluster lists its members in ascending id.
func (cl *clustering) group(assign []int, numClusters int) {
	cl.off = slices.Grow(cl.off[:0], numClusters+2)[:numClusters+2]
	clear(cl.off)
	// off[c+2] counts cluster c, so that after the prefix sum off[c+1] is
	// c's write cursor and, once filled, c's end.
	for _, c := range assign {
		cl.off[c+2]++
	}
	for c := 0; c < numClusters; c++ {
		cl.off[c+2] += cl.off[c+1]
	}
	cl.members = slices.Grow(cl.members[:0], len(assign))[:len(assign)]
	for v, c := range assign {
		cl.members[cl.off[c+1]] = v
		cl.off[c+1]++
	}
}

// of returns cluster c's members; the view is valid until the next group.
func (cl *clustering) of(c int) []int { return cl.members[cl.off[c]:cl.off[c+1]] }

// buildHybridSet contracts every multilevel level by the representative
// assignment to produce the hybrid set and its up-maps.
func buildHybridSet(ctx context.Context, mset *graph.Set, assignAt [][]int, h *Hybrid, workers int) (*graph.Set, error) {
	levels := len(mset.Levels)
	set := &graph.Set{}
	// groupOf[i][v] = hybrid-set node of level-i node v; sizes[i] = count.
	groupOf := make([][]int, levels)
	for i := 0; i < levels; i++ {
		gi := mset.Levels[i]
		// First member of each level-i node.
		first := make([]int, gi.NumNodes())
		for v := range first {
			first[v] = -1
		}
		for v0, c := range assignAt[i] {
			if first[c] == -1 {
				first[c] = v0
			}
		}
		group := make([]int, gi.NumNodes())
		// Slot layout: representatives first (in rep-id order, so that
		// level 0 of the hybrid set uses exactly the hybrid node ids),
		// then the surviving plain level-i nodes in id order.
		// repSlot[r] = dense slot of representative r, or -1. Slots are
		// assigned in ascending rep-id order, so level 0 of the hybrid
		// set uses exactly the hybrid node ids.
		repSlot := make([]int, len(h.Nodes))
		for r := range repSlot {
			repSlot[r] = -1
		}
		repFor := make([]int, gi.NumNodes()) // rep id, or -1 for plain
		for v := 0; v < gi.NumNodes(); v++ {
			m := first[v]
			if m == -1 {
				return nil, fmt.Errorf("hybrid: level %d node %d has no members", i, v)
			}
			r := h.RepOf[m]
			if h.Nodes[r].Level >= i {
				repFor[v] = r
				repSlot[r] = 0
			} else {
				repFor[v] = -1
			}
		}
		next := 0
		for r := range repSlot {
			if repSlot[r] == 0 {
				repSlot[r] = next
				next++
			}
		}
		for v := 0; v < gi.NumNodes(); v++ {
			if r := repFor[v]; r != -1 {
				group[v] = repSlot[r]
			} else {
				group[v] = next
				next++
			}
		}
		groupOf[i] = group
		// Contract level i by group: weights sum within groups, crossing
		// edges merge, all on the bounded worker pool. At level 0 every
		// node's representative qualifies, so group is RepOf and the
		// contraction is G'0 itself (G0's nodes weigh 1, so the summed
		// weights are the cluster sizes): h.G is shared, not rebuilt.
		ci := h.G
		if i > 0 {
			var err error
			ci, err = graph.ContractCtx(ctx, gi, group, next, workers)
			if err != nil {
				return nil, err
			}
		}
		set.Levels = append(set.Levels, ci)
	}
	// Up-maps: follow any G0 member through the next level's grouping.
	for i := 0; i+1 < levels; i++ {
		// memberOf[x] = some G0 node inside hybrid-set node x at level i.
		member := make([]int, set.Levels[i].NumNodes())
		for x := range member {
			member[x] = -1
		}
		for v0 := range assignAt[i] {
			x := groupOf[i][assignAt[i][v0]]
			if member[x] == -1 {
				member[x] = v0
			}
		}
		up := make([]int, set.Levels[i].NumNodes())
		for x, m := range member {
			if m == -1 {
				return nil, fmt.Errorf("hybrid: set level %d node %d empty", i, x)
			}
			up[x] = groupOf[i+1][assignAt[i+1][m]]
		}
		set.Up = append(set.Up, up)
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("hybrid: invalid set: %w", err)
	}
	return set, nil
}

// layoutScratch holds reusable state for cluster layout tests. Each
// worker owns exactly one scratch: the dense n-sized bitmaps are reset
// on exit from every tryLayout call, and the variable-size buffers
// (queue, order, pairs, counts) are truncated and reused so steady-state
// layout tests allocate only their accepted Node results.
type layoutScratch struct {
	reads   []dna.Read
	inc     *incidence
	cfg     Config
	inSet   []bool // membership bitmap, reset after each use
	pos     []int
	visited []bool
	queue   []int      // BFS worklist
	order   []placed   // members sorted by (offset, id)
	mark    []int64    // record-backed partner stamps (epoch-keyed)
	epoch   int64      // current stamp; bumped instead of clearing mark
	counts  [][4]int32 // consensus vote columns
}

// placed is a cluster member at its normalized layout offset.
type placed struct{ v, off int }

func newLayoutScratch(n int, reads []dna.Read, inc *incidence, cfg Config) *layoutScratch {
	return &layoutScratch{
		reads: reads, inc: inc, cfg: cfg,
		inSet: make([]bool, n), pos: make([]int, n), visited: make([]bool, n),
		mark: make([]int64, n),
	}
}

// tryLayout tests whether the cluster is linear (every overlap-implied
// position is consistent and the cluster is one connected block) and, if
// so, assembles its consensus contig.
func (s *layoutScratch) tryLayout(members []int, level int) (Node, bool) {
	if len(members) == 1 {
		v := members[0]
		return Node{
			Level:   level,
			Members: []int{v},
			Contig:  append([]byte(nil), s.reads[v].Seq...),
			Offsets: []int{0},
		}, true
	}
	for _, m := range members {
		s.inSet[m] = true
	}
	defer func() {
		for _, m := range members {
			s.inSet[m] = false
			s.visited[m] = false
		}
	}()

	// BFS position propagation from members[0].
	start := members[0]
	s.pos[start] = 0
	s.visited[start] = true
	queue := append(s.queue[:0], start)
	head := 0
	count := 1
	ok := true
	for head < len(queue) && ok {
		v := queue[head]
		head++
		for _, e := range s.inc.of(v) {
			u := int(e.other)
			if !s.inSet[u] {
				continue
			}
			p := s.pos[v] + int(e.diag)
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
			queue = append(queue, u)
			count++
		}
	}
	s.queue = queue[:0]
	if !ok || count != len(members) {
		return Node{}, false // inconsistent or disconnected
	}

	// Normalize offsets and check the layout tiles one contiguous block.
	minPos := s.pos[members[0]]
	for _, m := range members {
		if s.pos[m] < minPos {
			minPos = s.pos[m]
		}
	}
	order := s.order[:0]
	for _, m := range members {
		order = append(order, placed{m, s.pos[m] - minPos})
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
	// with a fresh epoch and demand every close pair carry a stamp. The
	// mark array persists across calls; bumping the epoch invalidates
	// old stamps without clearing.
	for i := 0; i < len(order); i++ {
		v := order[i].v
		endI := order[i].off + len(s.reads[v].Seq)
		if i+1 < len(order) && order[i+1].off <= endI-s.cfg.RequireOverlap {
			s.epoch++
			for _, e := range s.inc.of(v) {
				s.mark[e.other] = s.epoch
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
			if s.mark[order[j].v] != s.epoch {
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
