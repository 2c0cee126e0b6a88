package assembly

import (
	"focus/internal/align"
	"focus/internal/par"
)

// The three cleaning scans (DESIGN.md §14) run over the pooled edgeCSR
// view, parallelized by row blocks over the par governor. Every kernel
// stages its emissions per fixed-grain block and assembles the blocks in
// index order, and every scan's final output is sorted and deduplicated —
// so results are identical at any worker count, and byte-identical to
// the serial map-walking oracle kept in phases_oracle_test.go (pinned by
// the equivalence property suite and FuzzPhaseEngines).
//
// Transitive reduction follows Guidi et al.'s sparse-matrix formulation
// (Parallel String Graph Construction and Transitive Reduction): for each
// local row v the direct successors' diagonals — the sparse row Diag(v,·)
// of A — are stamped into a generation-cleared dense/hash accumulator
// (stampAccum, a BELLA-style switch), then the two-hop products
// Diag(v,w)+Diag(w,x) of A·A are compared against the mask A under
// DiagTolerance.

// Per-scan fan-out constants: blockRows is the staging grain (fixed, so
// block contents never depend on the worker count); grainRows is the
// per-worker break-even row count fed to the governor's auto mode. The
// containment scan runs banded alignments per row and breaks even far
// earlier than the pointer-chasing transitive/error scans.
const (
	transBlockRows = 128
	transGrainRows = 512

	containBlockRows = 16
	containGrainRows = 64

	errBlockRows = 256
	errGrainRows = 1024
)

// transitiveEdges finds edges of local nodes that are transitive
// (paper §V.A, after Myers' string graph construction): v->x is removable
// when some v->w and w->x exist whose placements compose to v->x within
// DiagTolerance. Like every CSR scan it fans its row blocks out over at
// most `workers` goroutines (<= 0 lets the par governor size the pool from
// the local node count); the output is identical at any width.
func transitiveEdges(sub *Subgraph, cfg Config, workers int) []EdgePair {
	ps := getPhaseScratch()
	defer putPhaseScratch(ps)
	c := ps.buildCSR(sub, viewOut)
	nl := len(c.local)
	nb := par.Blocks(nl, transBlockRows)
	w := par.Workers(workers, nl, transGrainRows)
	stage := ps.stageBlocks(nb)
	ps.workerSlots(w)
	n := len(c.ids)
	par.Run(w, nb, func(worker, b int) {
		rs := ps.workerScratch(worker)
		st := &stage[b]
		lo, hi := b*transBlockRows, min((b+1)*transBlockRows, nl)
		for r := lo; r < hi; r++ {
			v := c.local[r]
			outs := c.liveOut(v)
			if len(outs) < 2 {
				continue
			}
			// Stamp the mask row Diag(v,·); last write wins for duplicate
			// v->x edges.
			acc := &rs.acc
			acc.Reset(n, len(outs))
			for _, a := range outs {
				acc.Set(a.to, a.diag)
			}
			vid := c.ids[v]
			for _, a := range outs {
				for _, bx := range c.liveOut(a.to) {
					if bx.to == v {
						continue
					}
					dvx, ok := acc.Get(bx.to)
					if !ok {
						continue
					}
					d := dvx - (a.diag + bx.diag)
					if d < 0 {
						d = -d
					}
					if int(d) <= cfg.DiagTolerance {
						st.pairs = append(st.pairs, EdgePair{From: vid, To: c.ids[bx.to]})
					}
				}
			}
		}
	})
	return ps.mergePairs(stage)
}

// mergePairs concatenates the staged pairs in block order into a fresh
// result slice (staging memory returns to the pool) and deduplicates.
// Empty scans return nil (nil and empty differ on the wire).
func (ps *phaseScratch) mergePairs(stage []blockStage) []EdgePair {
	total := 0
	for i := range stage {
		total += len(stage[i].pairs)
	}
	if total == 0 {
		return nil
	}
	out := make([]EdgePair, 0, total)
	for i := range stage {
		out = append(out, stage[i].pairs...)
	}
	return dedupePairs(out, &ps.keys)
}

// mergeNodes is mergePairs for staged node removals: fresh slice, sorted,
// deduplicated, nil when empty.
func mergeNodes(stage []blockStage) []int32 {
	total := 0
	for i := range stage {
		total += len(stage[i].nodes)
	}
	if total == 0 {
		return nil
	}
	out := make([]int32, 0, total)
	for i := range stage {
		out = append(out, stage[i].nodes...)
	}
	return dedupeNodes(out)
}

// containmentScan verifies every edge incident to a local node by aligning
// the two contigs on the recorded placement (paper §V.B). Contigs
// contained in a neighbour are recorded for removal; edges whose verified
// overlap is shorter than MinEdgeOverlap or below MinEdgeIdentity are
// false positives and recorded for removal.
func containmentScan(sub *Subgraph, cfg Config, workers int) Removal {
	ps := getPhaseScratch()
	defer putPhaseScratch(ps)
	c := ps.buildCSR(sub, viewOut|viewIn)
	acfg := align.Config{
		MinLength:   cfg.MinEdgeOverlap,
		MinIdentity: cfg.MinEdgeIdentity,
		Band:        cfg.Band,
		Scoring:     align.DefaultScoring,
	}
	nl := len(c.local)
	nb := par.Blocks(nl, containBlockRows)
	w := par.Workers(workers, nl, containGrainRows)
	stage := ps.stageBlocks(nb)
	ps.workerSlots(w)
	par.Run(w, nb, func(worker, b int) {
		rs := ps.workerScratch(worker)
		st := &stage[b]
		check := func(from, to, diag int32) {
			ov, ok := rs.al.OverlapOnDiagonal(c.contig[from], c.contig[to], int(diag), acfg)
			if !ok {
				st.pairs = append(st.pairs, EdgePair{From: c.ids[from], To: c.ids[to]})
				return
			}
			contained := int32(-1)
			switch ov.Kind {
			case align.KindAContainsB:
				contained = to
			case align.KindBContainsA:
				contained = from
			}
			if contained >= 0 && c.isLocal[contained] {
				st.nodes = append(st.nodes, c.ids[contained])
			}
		}
		lo, hi := b*containBlockRows, min((b+1)*containBlockRows, nl)
		for r := lo; r < hi; r++ {
			i := c.local[r]
			for _, a := range c.out(i) {
				check(i, a.to, a.diag)
			}
			for _, a := range c.in(i) {
				if !c.isLocal[a.to] { // avoid double work for local-local
					check(a.to, i, a.diag)
				}
			}
		}
	})
	return Removal{Nodes: mergeNodes(stage), Edges: ps.mergePairs(stage)}
}

// errorScan finds short dead-end paths and bubbles among local nodes
// (paper §V.C, following Velvet's tips-and-bubbles trimming).
func errorScan(sub *Subgraph, cfg Config, workers int) Removal {
	ps := getPhaseScratch()
	defer putPhaseScratch(ps)
	c := ps.buildCSR(sub, viewOut|viewIn)
	nl := len(c.local)
	nb := par.Blocks(nl, errBlockRows)
	w := par.Workers(workers, nl, errGrainRows)
	stage := ps.stageBlocks(nb)
	ps.workerSlots(w)

	// Bubble victim rule: the branch with lower read weight (tie: shorter
	// contig, then higher node id) is removed. The rule is deterministic,
	// so two partitions seeing the same bubble record the same victim.
	loses := func(a, b int32) bool {
		if c.weight[a] != c.weight[b] {
			return c.weight[a] < c.weight[b]
		}
		if len(c.contig[a]) != len(c.contig[b]) {
			return len(c.contig[a]) < len(c.contig[b])
		}
		return c.ids[a] > c.ids[b]
	}
	// Dead-end walk (paper §V.C): from a local source (no in-edges) walk
	// forward through a unique-successor/unique-predecessor chain; if it
	// attaches to a junction within MaxTipNodes, spans < MinTipLen bases
	// AND is the minority branch at that junction (a strictly heavier
	// sibling edge exists), the chain is a tip. The minority condition
	// keeps legitimate chain heads, which are also in-degree-0. Mirrored
	// for sinks. Chains are staged per block and cross-block duplicates
	// fall to the final sort+dedupe, so blocks stay independent. The
	// `e.to != cur` test below excludes conn itself: cur's single live
	// out-edge (in-edge on the mirrored walk) is conn, so any other live
	// back-arc from cur would imply a second cur->nb edge and the walk
	// would already have branched.
	walk := func(rs *rowScratch, st *blockStage, start int32, fwd bool) {
		chain := append(rs.chain[:0], start)
		defer func() { rs.chain = chain }()
		span := len(c.contig[start])
		cur := start
		for len(chain) <= cfg.MaxTipNodes {
			var next []csrArc
			if fwd {
				next = c.liveOut(cur)
			} else {
				next = c.liveIn(cur)
			}
			if len(next) != 1 {
				return // branches or terminates without attachment
			}
			conn := next[0]
			nb := conn.to
			var back []csrArc
			if fwd {
				back = c.liveIn(nb)
			} else {
				back = c.liveOut(nb)
			}
			if len(back) > 1 {
				dominated := false
				for _, e := range back {
					if e.to != cur && e.alen > conn.alen {
						dominated = true
						break
					}
				}
				if dominated && span < cfg.MinTipLen {
					for _, i := range chain {
						st.nodes = append(st.nodes, c.ids[i])
					}
				}
				return
			}
			chain = append(chain, nb)
			span += len(c.contig[nb]) // upper bound on added span
			cur = nb
		}
	}
	par.Run(w, nb, func(worker, b int) {
		rs := ps.workerScratch(worker)
		st := &stage[b]
		lo, hi := b*errBlockRows, min((b+1)*errBlockRows, nl)
		for r := lo; r < hi; r++ {
			i := c.local[r]
			ins, outs := c.liveIn(i), c.liveOut(i)
			if len(ins) == 0 && len(outs) == 1 {
				walk(rs, st, i, true)
			}
			if len(outs) == 0 && len(ins) == 1 {
				walk(rs, st, i, false)
			}
			// Bubbles: i with unique live predecessor u and successor w;
			// a sibling x sharing exactly (u, w) forms the pair.
			if len(ins) != 1 || len(outs) != 1 {
				continue
			}
			u, wn := ins[0].to, outs[0].to
			for _, sib := range c.liveOut(u) {
				x := sib.to
				if x == i {
					continue
				}
				xi, xo := c.liveIn(x), c.liveOut(x)
				if len(xi) != 1 || len(xo) != 1 || xo[0].to != wn {
					continue
				}
				victim := i
				if loses(x, i) {
					victim = x
				}
				st.nodes = append(st.nodes, c.ids[victim])
			}
		}
	})
	return Removal{Nodes: mergeNodes(stage)}
}
