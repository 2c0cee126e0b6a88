package hybrid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/overlap"
	"focus/internal/par"
	"focus/internal/preprocess"
	"focus/internal/simulate"
)

// This file keeps the top-down hybrid builder the rank-range builder
// replaced, as the oracle TestBuildMatchesTopDownOracle pins it to: a
// levels x n0 assignment table, a per-level counting sort of the G0 ids
// into clusters, n0-sized layout bitmaps, every uncovered cluster tested
// even when its parent with the same reads already failed, and every
// hybrid-set level contracted from the multilevel graph G_i.

// identityRanks ranks G0 node v at v, so an incidence over it is indexed
// (and names its other ends) by G0 id.
func identityRanks(n int) []int32 {
	rank := make([]int32, n)
	for v := range rank {
		rank[v] = int32(v)
	}
	return rank
}

// buildTopDown selects best representatives top-down through the
// multilevel set and assembles the hybrid graph set.
func buildTopDown(ctx context.Context, mset *graph.Set, reads []dna.Read, recs []overlap.Record, cfg Config, workers int) (*Hybrid, error) {
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

	inc, err := buildIncidence(identityRanks(len(reads)), recs, 1)
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
	scratches := make([]*topDownScratch, width)
	scratches[0] = newTopDownScratch(n0, reads, inc, cfg)
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
				scratches[p] = newTopDownScratch(n0, reads, inc, cfg)
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
	set, err := buildHybridSetTopDown(ctx, mset, assignAt, h, width)
	if err != nil {
		return nil, err
	}
	h.Set = set
	return h, nil
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

// buildHybridSetTopDown contracts every multilevel level by the representative
// assignment to produce the hybrid set and its up-maps.
func buildHybridSetTopDown(ctx context.Context, mset *graph.Set, assignAt [][]int, h *Hybrid, workers int) (*graph.Set, error) {
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

// topDownScratch holds reusable state for cluster layout tests. Each
// worker owns exactly one scratch: the dense n-sized bitmaps are reset
// on exit from every tryLayout call, and the variable-size buffers
// (queue, order, pairs, counts) are truncated and reused so steady-state
// layout tests allocate only their accepted Node results.
type topDownScratch struct {
	reads   []dna.Read
	inc     *incidence
	cfg     Config
	inSet   []bool // membership bitmap, reset after each use
	pos     []int
	visited []bool
	queue   []int      // BFS worklist
	order   []placed   // members sorted by (offset, id); k unused
	mark    []int64    // record-backed partner stamps (epoch-keyed)
	epoch   int64      // current stamp; bumped instead of clearing mark
	counts  [][4]int32 // consensus vote columns
}

func newTopDownScratch(n int, reads []dna.Read, inc *incidence, cfg Config) *topDownScratch {
	return &topDownScratch{
		reads: reads, inc: inc, cfg: cfg,
		inSet: make([]bool, n), pos: make([]int, n), visited: make([]bool, n),
		mark: make([]int64, n),
	}
}

// tryLayout tests whether the cluster is linear (every overlap-implied
// position is consistent and the cluster is one connected block) and, if
// so, assembles its consensus contig.
func (s *topDownScratch) tryLayout(members []int, level int) (Node, bool) {
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
		order = append(order, placed{v: m, off: s.pos[m] - minPos})
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

// oracleInput is one pipeline input: preprocessed reads, their records and
// the multilevel set over them.
type oracleInput struct {
	name  string
	reads []dna.Read
	recs  []overlap.Record
	mset  *graph.Set
}

// simulatedInput runs a community through the pipeline's front half as the
// assembler's defaults do: reads at the given coverage with data set id's
// error profile (adapters off), quality trimming with reverse complements
// added, overlaps over four subsets, and coarsening down to 128 nodes.
func simulatedInput(tb testing.TB, name string, spec simulate.CommunitySpec, id int, coverage float64) oracleInput {
	tb.Helper()
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(id, coverage)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		tb.Fatal(err)
	}
	reads, _, err := preprocess.Run(rs.Reads, preprocess.Config{Window: 10, Step: 1, MinQuality: 12, MinLen: 40, AddReverse: true})
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := overlap.FindOverlaps(reads, 4, overlap.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	g0, err := overlap.BuildGraph(len(reads), recs)
	if err != nil {
		tb.Fatal(err)
	}
	copt := coarsen.DefaultOptions()
	copt.MinNodes = 128
	return oracleInput{name, reads, recs, coarsen.Multilevel(g0, copt)}
}

// genomeInput is the genome_ksweep-shaped input: one 80 kb genome at 30x.
func genomeInput(tb testing.TB) oracleInput {
	return simulatedInput(tb, "80 kb x 30", simulate.SingleGenome("g", 80000, 1), 1, 30)
}

// shuffleCoarseIDs renumbers the nodes of every level above 0 by a random
// permutation, permuting the graphs and up-maps alike.
func shuffleCoarseIDs(t *testing.T, mset *graph.Set, seed int64) *graph.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := &graph.Set{Levels: []*graph.Graph{mset.Levels[0]}}
	var below []int // below[v] = new id of old level-(i-1) node v; nil = identity
	for i := 1; i < len(mset.Levels); i++ {
		perm := rng.Perm(mset.Levels[i].NumNodes())
		g, err := graph.ContractCtx(nil, mset.Levels[i], perm, len(perm), 1)
		if err != nil {
			t.Fatal(err)
		}
		up := make([]int, len(mset.Up[i-1]))
		for v, p := range mset.Up[i-1] {
			nv := v
			if below != nil {
				nv = below[v]
			}
			up[nv] = perm[p]
		}
		out.Levels = append(out.Levels, g)
		out.Up = append(out.Up, up)
		below = perm
	}
	return out
}

// requireSameHybrid demands got equal want in every field: the nodes
// (members, offsets, contigs, levels), RepOf, G'0 and every level and
// up-map of the hybrid set.
func requireSameHybrid(t *testing.T, name string, got, want *Hybrid) {
	t.Helper()
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("%s: Nodes diverged (%d vs %d nodes)", name, len(got.Nodes), len(want.Nodes))
	}
	if !slices.Equal(got.RepOf, want.RepOf) {
		t.Fatalf("%s: RepOf diverged", name)
	}
	if !got.G.Equal(want.G) {
		t.Fatalf("%s: G diverged", name)
	}
	if len(got.Set.Levels) != len(want.Set.Levels) {
		t.Fatalf("%s: %d set levels vs %d", name, len(got.Set.Levels), len(want.Set.Levels))
	}
	for i := range want.Set.Levels {
		if !got.Set.Levels[i].Equal(want.Set.Levels[i]) {
			t.Fatalf("%s: set level %d diverged", name, i)
		}
	}
	if !reflect.DeepEqual(got.Set.Up, want.Set.Up) {
		t.Fatalf("%s: set up-maps diverged", name)
	}
}

// TestBuildMatchesTopDownOracle: the rank-range builder equals the top-down
// one on the paper data set analogues, on repeat tilings, on two of them
// with jittered diagonals and shuffled coarse ids, and on the
// genome_ksweep-shaped genome, at widths 1, 2 and 8; its equal-range skip
// fires (every skipped cluster is a test the oracle ran and failed).
func TestBuildMatchesTopDownOracle(t *testing.T) {
	var inputs []oracleInput
	for id := 1; id <= 3; id++ {
		spec, err := simulate.PaperDataSet(id, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, simulatedInput(t, fmt.Sprintf("D%d analogue", id), spec, id, 8))
	}
	for seed := int64(0); seed < 4; seed++ {
		genome := randGenome(700+seed, 2500+int(seed)*600)
		copy(genome[len(genome)-400:], genome[100:500]) // an exact repeat
		reads := tilingReads(genome, 100, 15+int(seed)*6)
		recs, err := overlap.FindOverlaps(reads, 2, overlap.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		g0, err := overlap.BuildGraph(len(reads), recs)
		if err != nil {
			t.Fatal(err)
		}
		copt := coarsen.DefaultOptions()
		copt.MinNodes = 4
		copt.Seed = seed
		inputs = append(inputs, oracleInput{fmt.Sprintf("repeat tiling %d", seed), reads, recs, coarsen.Multilevel(g0, copt)})
	}
	// A tiling whose diagonals disagree by up to 2 bases, so a cluster's
	// offsets depend on the BFS tree, with every coarse level's ids
	// shuffled: coarsening numbers a coarse node by its smallest fine node,
	// so there a cluster's first rank is always its smallest read id (the
	// BFS root); here it is not.
	rng := rand.New(rand.NewSource(5))
	for _, i := range []int{1, 3} {
		jitter := inputs[i]
		jitter.recs = slices.Clone(jitter.recs)
		for r := range jitter.recs {
			jitter.recs[r].Diag += int32(rng.Intn(5) - 2)
		}
		jitter.name += ", diagonals jittered, coarse ids shuffled"
		jitter.mset = shuffleCoarseIDs(t, jitter.mset, 9)
		inputs = append(inputs, jitter)
	}
	inputs = append(inputs, genomeInput(t))

	for _, in := range inputs {
		want, err := buildTopDown(nil, in.mset, in.reads, in.recs, DefaultConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		skips := -1
		for _, w := range []int{1, 2, 8} {
			got, skipped, err := build(nil, in.mset, in.reads, in.recs, DefaultConfig(), w)
			if err != nil {
				t.Fatal(err)
			}
			requireSameHybrid(t, fmt.Sprintf("%s at width %d", in.name, w), got, want)
			if skips >= 0 && skipped != skips {
				t.Fatalf("%s: %d clusters skipped at width %d, %d at width 1", in.name, skipped, w, skips)
			}
			skips = skipped
		}
		if skips == 0 && in.name == "80 kb x 30" {
			t.Fatalf("%s: the equal-range skip never fired", in.name)
		}
		t.Logf("%s: %d reads, %d hybrid nodes, %d clusters skipped", in.name, len(in.reads), len(want.Nodes), skips)
	}
}
