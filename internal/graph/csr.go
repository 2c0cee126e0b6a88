// CSR construction: a sort-based parallel edge merge replacing the old
// map-based Builder.Build. The pipeline is
//
//	count  — directed degree per node (atomic adds across edge shards)
//	place  — scatter both arc directions into a packed scratch arena,
//	         slots claimed with atomic cursor fetch-adds
//	sort   — per-node sort by neighbour id (nodes are independent)
//	merge  — run-length dedup summing parallel-edge weights, then a
//	         compaction into the final arena
//
// Every stage is deterministic at any worker count: scatter order within
// a node's segment is racy, but the subsequent sort plus commutative
// weight summation collapse all orders to the same final arcs.
package graph

import (
	"context"
	"sync"
	"sync/atomic"

	"focus/internal/par"
)

// parallelMinEdges is the edge count below which building runs serially;
// goroutine fan-out costs more than it saves on tiny graphs.
const parallelMinEdges = 4096

// resolveWorkers sizes the build pool through the shared governor: <= 0
// means auto (serial below the edge grain, then one worker per ~grain
// edges); explicit counts are honored so tests can force the parallel
// path on small graphs, but still capped at GOMAXPROCS and at size.
func resolveWorkers(workers, size int) int {
	return par.Workers(workers, size, parallelMinEdges)
}

// parDo runs f(0..parts-1) on parts goroutines and waits for all.
func parDo(parts int, f func(part int)) {
	if parts <= 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts)
	for p := 0; p < parts; p++ {
		go func(p int) {
			defer wg.Done()
			f(p)
		}(p)
	}
	wg.Wait()
}

// splitRange returns the half-open slice [lo,hi) of n items owned by part
// p out of parts.
func splitRange(n, parts, p int) (lo, hi int) {
	return n * p / parts, n * (p + 1) / parts
}

// edgeCursor iterates a contiguous logical range of a sharded edge list.
func forEdgeRange(shards [][]Edge, lo, hi int, f func(Edge)) {
	pos := 0
	for _, sh := range shards {
		if hi <= pos {
			return
		}
		if lo >= pos+len(sh) {
			pos += len(sh)
			continue
		}
		a, b := 0, len(sh)
		if lo > pos {
			a = lo - pos
		}
		if hi < pos+len(sh) {
			b = hi - pos
		}
		for _, e := range sh[a:b] {
			f(e)
		}
		pos += len(sh)
	}
}

// buildCSR runs the four-stage pipeline, polling the (nil-safe) gate
// BETWEEN stages and at node-chunk boundaries within the two per-node
// stages. The between-stage checks are load-bearing for memory safety,
// not just latency: the scatter indexes an arena sized by the count
// stage, so a cancel observed mid-count must prevent the scatter from
// running at all rather than resume it over partial cursors. A stopped
// gate yields nil; only the ctx-taking wrappers expose that, paired with
// the context's error.
func buildCSR(n int, nodeWeight []int64, shards [][]Edge, workers int, gate *par.Gate) *Graph {
	g := &Graph{nodeWeight: nodeWeight}
	for _, w := range nodeWeight {
		g.totalNodeW += w
	}
	g.offsets = make([]int32, n+1)
	total := 0
	for _, sh := range shards {
		total += len(sh)
	}
	if total == 0 {
		return g
	}
	w := resolveWorkers(workers, total)

	// Count directed degrees (self-loops dropped).
	cnt := make([]int32, n)
	if w == 1 {
		for _, sh := range shards {
			for _, e := range sh {
				if e.U != e.V {
					cnt[e.U]++
					cnt[e.V]++
				}
			}
		}
	} else {
		parDo(w, func(p int) {
			lo, hi := splitRange(total, w, p)
			forEdgeRange(shards, lo, hi, func(e Edge) {
				if e.U != e.V {
					atomic.AddInt32(&cnt[e.U], 1)
					atomic.AddInt32(&cnt[e.V], 1)
				}
			})
		})
	}
	if gate.Stopped() {
		return nil // partial counts: the scatter below must never see them
	}
	scratchOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		scratchOff[v+1] = scratchOff[v] + cnt[v]
	}

	// Scatter both directions into the scratch arena. cnt doubles as the
	// per-node write cursor (relative to scratchOff).
	arena := make([]Arc, scratchOff[n])
	cursor := cnt
	for i := range cursor {
		cursor[i] = scratchOff[i]
	}
	if w == 1 {
		for _, sh := range shards {
			for _, e := range sh {
				if e.U == e.V {
					continue
				}
				arena[cursor[e.U]] = Arc{To: int(e.V), W: e.W}
				cursor[e.U]++
				arena[cursor[e.V]] = Arc{To: int(e.U), W: e.W}
				cursor[e.V]++
			}
		}
	} else {
		parDo(w, func(p int) {
			lo, hi := splitRange(total, w, p)
			forEdgeRange(shards, lo, hi, func(e Edge) {
				if e.U == e.V {
					return
				}
				i := atomic.AddInt32(&cursor[e.U], 1) - 1
				arena[i] = Arc{To: int(e.V), W: e.W}
				j := atomic.AddInt32(&cursor[e.V], 1) - 1
				arena[j] = Arc{To: int(e.U), W: e.W}
			})
		})
	}

	if gate.Stopped() {
		return nil
	}

	// Sort each node's segment and merge duplicate neighbours in place.
	// Nodes are independent, so shards of the node range run in parallel;
	// the gate is polled every 256 nodes (the sort is the expensive stage).
	merged := make([]int32, n+1)
	parDo(w, func(p int) {
		lo, hi := splitRange(n, w, p)
		for v := lo; v < hi; v++ {
			if v&255 == 0 && gate.Stopped() {
				return
			}
			seg := arena[scratchOff[v]:scratchOff[v+1]]
			sortArcs(seg)
			merged[v+1] = int32(dedupeArcs(seg))
		}
	})
	if gate.Stopped() {
		return nil // partial merged counts: the compaction must not see them
	}
	for v := 0; v < n; v++ {
		merged[v+1] += merged[v]
	}

	// Compact into the final arena and tally edge totals once per edge.
	arcs := make([]Arc, merged[n])
	edges := make([]int, w)
	weights := make([]int64, w)
	parDo(w, func(p int) {
		lo, hi := splitRange(n, w, p)
		var ne int
		var wsum int64
		for v := lo; v < hi; v++ {
			seg := arena[scratchOff[v] : scratchOff[v]+(merged[v+1]-merged[v])]
			copy(arcs[merged[v]:merged[v+1]], seg)
			for _, a := range seg {
				if a.To > v {
					ne++
					wsum += a.W
				}
			}
		}
		edges[p] = ne
		weights[p] = wsum
	})
	for p := 0; p < w; p++ {
		g.numEdges += edges[p]
		g.totalEdgeW += weights[p]
	}
	g.offsets = merged
	g.arcs = arcs
	return g
}

// sortArcs sorts a segment by neighbour id with an allocation-free
// quicksort (insertion sort below a small cutoff). Duplicate ids may land
// in any order; the follow-up merge sums their weights, so the final
// segment is order-independent.
func sortArcs(a []Arc) {
	for len(a) > 24 {
		// Median-of-three pivot.
		x, y, z := a[0].To, a[len(a)/2].To, a[len(a)-1].To
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
		}
		if x > y {
			y = x
		}
		pivot := y
		i, j := 0, len(a)-1
		for i <= j {
			for a[i].To < pivot {
				i++
			}
			for a[j].To > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if j+1 < len(a)-i {
			sortArcs(a[:j+1])
			a = a[i:]
		} else {
			sortArcs(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].To < a[j-1].To; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// dedupeArcs merges sorted runs of equal neighbours by summing weights,
// in place, and returns the merged length.
func dedupeArcs(a []Arc) int {
	if len(a) == 0 {
		return 0
	}
	k := 0
	for i := 1; i < len(a); i++ {
		if a[i].To == a[k].To {
			a[k].W += a[i].W
		} else {
			k++
			a[k] = a[i]
		}
	}
	return k + 1
}

// Contract builds the contraction of g by the node mapping group
// (group[v] in [0,numGroups)): node weights sum within groups, edges
// between groups merge by weight summation, intra-group edges vanish.
// The result is identical at any worker count (<= 0 means GOMAXPROCS).
func Contract(g *Graph, group []int, numGroups, workers int) *Graph {
	c, _ := ContractCtx(nil, g, group, numGroups, workers)
	return c
}

// ContractCtx is Contract bounded by ctx: a cancel abandons the
// contraction at the next node-chunk boundary and returns the context's
// cause (the partial result is discarded). A nil ctx never cancels.
func ContractCtx(ctx context.Context, g *Graph, group []int, numGroups, workers int) (*Graph, error) {
	gate := par.GateFor(ctx)
	n := g.NumNodes()
	w := resolveWorkers(workers, len(g.arcs))

	// Coarse node weights: per-worker partial sums, reduced serially.
	nw := make([]int64, numGroups)
	if w == 1 {
		for v, c := range group {
			nw[c] += g.nodeWeight[v]
		}
	} else {
		partial := make([][]int64, w)
		parDo(w, func(p int) {
			local := make([]int64, numGroups)
			lo, hi := splitRange(n, w, p)
			for v := lo; v < hi; v++ {
				local[group[v]] += g.nodeWeight[v]
			}
			partial[p] = local
		})
		for _, local := range partial {
			for c, x := range local {
				nw[c] += x
			}
		}
	}
	return contractWithWeights(g, group, nw, workers, gate)
}

// ContractWithWeights is Contract with the coarse node weights supplied by
// the caller (len(nw) = numGroups) instead of summed from the fine graph.
//
// Rather than emitting edge triples and re-running the full sort-based
// build, contraction accumulates each coarse node's adjacency directly:
// the fine members of a coarse node are scanned in ascending id order and
// their mapped neighbours merged through per-worker stamp/accumulator
// arrays (stamp[u] == c marks "u already seen for coarse node c", so no
// clearing between nodes). Only the deduplicated neighbour list is
// sorted. Workers own contiguous coarse-id ranges, so concatenating their
// output in worker order yields the final CSR arena; the result is
// identical at any worker count.
func ContractWithWeights(g *Graph, group []int, nw []int64, workers int) *Graph {
	c, _ := contractWithWeights(g, group, nw, workers, nil)
	return c
}

// ContractWithWeightsCtx is ContractWithWeights bounded by ctx (see
// ContractCtx).
func ContractWithWeightsCtx(ctx context.Context, g *Graph, group []int, nw []int64, workers int) (*Graph, error) {
	return contractWithWeights(g, group, nw, workers, par.GateFor(ctx))
}

func contractWithWeights(g *Graph, group []int, nw []int64, workers int, gate *par.Gate) (*Graph, error) {
	n := g.NumNodes()
	numGroups := len(nw)
	out := &Graph{nodeWeight: nw}
	for _, x := range nw {
		out.totalNodeW += x
	}
	out.offsets = make([]int32, numGroups+1)
	if n == 0 || numGroups == 0 {
		return out, nil
	}
	if gate.Stopped() {
		return nil, gate.Err()
	}
	w := resolveWorkers(workers, len(g.arcs))

	// Invert group: members of coarse node c, in ascending fine id
	// (counting sort — deterministic regardless of workers).
	memberOff := make([]int32, numGroups+1)
	for _, c := range group {
		memberOff[c+1]++
	}
	for c := 0; c < numGroups; c++ {
		memberOff[c+1] += memberOff[c]
	}
	members := make([]int32, n)
	cursor := make([]int32, numGroups)
	copy(cursor, memberOff[:numGroups])
	for v, c := range group {
		members[cursor[c]] = int32(v)
		cursor[c]++
	}

	type shard struct {
		arcs    []Arc
		edges   int
		weights int64
	}
	shards := make([]shard, w)
	degree := cursor // reuse: degree[c] = merged degree of coarse node c
	parDo(w, func(p int) {
		glo, ghi := splitRange(numGroups, w, p)
		if glo == ghi {
			return
		}
		// Stamp/accumulator pair, indexed by coarse id. stamp[u] == c
		// means u is already in c's neighbour list this round.
		stamp := make([]int32, numGroups)
		for i := range stamp {
			stamp[i] = -1
		}
		acc := make([]int64, numGroups)
		var touched []int32
		// A coarse node rarely has more neighbours than a fine one, so
		// size the output by the fine graph's mean degree rather than by
		// its arc count (a contraction to few groups would otherwise zero
		// an arena the size of the fine graph for a small result); append
		// grows it when the guess is low.
		buf := make([]Arc, 0, min(len(g.arcs)/w, (ghi-glo)*((len(g.arcs)+n-1)/n))+16)
		var ne int
		var wsum int64
		for c := glo; c < ghi; c++ {
			if c&255 == 0 && gate.Stopped() {
				return
			}
			touched = touched[:0]
			for _, v := range members[memberOff[c]:memberOff[c+1]] {
				for _, a := range g.Adj(int(v)) {
					u := group[a.To]
					if u == c {
						continue // internal to the group
					}
					if stamp[u] != int32(c) {
						stamp[u] = int32(c)
						acc[u] = a.W
						touched = append(touched, int32(u))
					} else {
						acc[u] += a.W
					}
				}
			}
			sortInt32s(touched)
			degree[c] = int32(len(touched))
			for _, u := range touched {
				buf = append(buf, Arc{To: int(u), W: acc[u]})
				if int(u) > c {
					ne++
					wsum += acc[u]
				}
			}
		}
		shards[p] = shard{arcs: buf, edges: ne, weights: wsum}
	})
	if gate.Stopped() {
		return nil, gate.Err() // partial degrees: don't assemble offsets from them
	}

	for c := 0; c < numGroups; c++ {
		out.offsets[c+1] = out.offsets[c] + degree[c]
	}
	arcs := make([]Arc, out.offsets[numGroups])
	pos := 0
	for p := 0; p < w; p++ {
		pos += copy(arcs[pos:], shards[p].arcs)
		out.numEdges += shards[p].edges
		out.totalEdgeW += shards[p].weights
	}
	out.arcs = arcs
	return out, nil
}

// sortInt32s sorts ascending with an allocation-free quicksort (insertion
// sort below a small cutoff).
func sortInt32s(a []int32) {
	for len(a) > 24 {
		x, y, z := a[0], a[len(a)/2], a[len(a)-1]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
		}
		if x > y {
			y = x
		}
		pivot := y
		i, j := 0, len(a)-1
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j+1 < len(a)-i {
			sortInt32s(a[:j+1])
			a = a[i:]
		} else {
			sortInt32s(a[i:])
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
