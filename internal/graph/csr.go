// CSR construction. FromSortedEdgesCtx is the one writer of a graph's
// arcs from edges: it takes them in CSR order (canonical, sorted) and
// scatters them straight into place. Builder.Build sorts arbitrary edges
// into that order and calls it. Contraction (ContractCtx) accumulates each
// coarse node's adjacency from the fine graph's CSR directly.
package graph

import (
	"context"

	"focus/internal/par"
)

// contractMinArcs is the fine arc count below which contraction runs
// serially; goroutine fan-out costs more than it saves on tiny graphs.
const contractMinArcs = 4096

// FromSortedEdgesCtx builds the graph over the given node weights (one node
// per entry; the graph keeps the slice) from m edges that edge(i) yields
// already in CSR order: canonical (u < v, both in [0,n)) and non-decreasing
// by (u, v). In that order a plain scatter is already sorted — every lower
// neighbour of a node is written before its first higher one, each group
// ascending — and parallel edges are adjacent, so the CSR is written
// directly: one counting scan that doubles as the order check, a prefix
// sum, one scatter that sums parallel edges' weights. No edge staging, no
// per-node sort and no compaction; the scans are serial and memory-bound.
//
// ordered is false, and nothing is built, when the edges are not in that
// order (self-loops and out-of-range endpoints included); the caller then
// takes the Builder, which accepts any order and reports range errors. A
// nil ctx never cancels; a cancel observed between the scans returns the
// context's cause.
func FromSortedEdgesCtx(ctx context.Context, nodeWeight []int64, m int, edge func(i int) (u, v int32, w int64)) (g *Graph, ordered bool, err error) {
	gate := par.GateFor(ctx)
	if gate.Stopped() {
		return nil, false, gate.Err()
	}
	n := len(nodeWeight)
	offsets := make([]int32, n+1)
	pu, pv := int32(-1), int32(-1)
	for i := 0; i < m; i++ {
		u, v, _ := edge(i)
		if u < 0 || u >= v || int(v) >= n || u < pu || (u == pu && v < pv) {
			return nil, false, nil
		}
		if u != pu || v != pv {
			offsets[u+1]++
			offsets[v+1]++
			pu, pv = u, v
		}
	}
	if gate.Stopped() {
		return nil, false, gate.Err()
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}

	g = &Graph{nodeWeight: nodeWeight, offsets: offsets}
	for _, w := range nodeWeight {
		g.totalNodeW += w
	}
	if m == 0 {
		return g, true, nil
	}
	arcs := make([]Arc, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	pu, pv = -1, -1
	for i := 0; i < m; i++ {
		u, v, w := edge(i)
		if u == pu && v == pv {
			// A parallel edge: its first copy holds the last slot of both ends.
			arcs[cursor[u]-1].W += w
			arcs[cursor[v]-1].W += w
		} else {
			arcs[cursor[u]] = Arc{To: int(v), W: w}
			cursor[u]++
			arcs[cursor[v]] = Arc{To: int(u), W: w}
			cursor[v]++
			g.numEdges++
			pu, pv = u, v
		}
		g.totalEdgeW += w
	}
	g.arcs = arcs
	return g, true, nil
}

// ContractCtx builds the contraction of g by the node mapping group
// (group[v] in [0,numGroups)): node weights sum within groups, edges
// between groups merge by weight summation, intra-group edges vanish.
// The result is identical at any worker count (<= 0 means GOMAXPROCS).
// A cancel of ctx abandons the contraction at the next node-chunk
// boundary and returns the context's cause (the partial result is
// discarded). A nil ctx never cancels.
func ContractCtx(ctx context.Context, g *Graph, group []int, numGroups, workers int) (*Graph, error) {
	return contractWithWeights(g, group, numGroups, nil, workers, par.GateFor(ctx))
}

// ContractWithWeightsCtx is ContractCtx with the coarse node weights
// supplied by the caller (len(nw) = numGroups) instead of summed from the
// fine graph.
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
func ContractWithWeightsCtx(ctx context.Context, g *Graph, group []int, nw []int64, workers int) (*Graph, error) {
	return contractWithWeights(g, group, len(nw), nw, workers, par.GateFor(ctx))
}

// contractWithWeights contracts g; a nil nw is summed from the members'
// weights in the scan that lists each coarse node's members. That scan
// reads the fine nodes in id order, and coarse ids mostly rise with them,
// so the sum costs no extra cache misses.
func contractWithWeights(g *Graph, group []int, numGroups int, nw []int64, workers int, gate *par.Gate) (*Graph, error) {
	n := g.NumNodes()
	sumWeights := nw == nil
	if sumWeights {
		nw = make([]int64, numGroups)
	}
	out := &Graph{nodeWeight: nw}
	out.offsets = make([]int32, numGroups+1)
	if n == 0 || numGroups == 0 {
		for _, x := range nw {
			out.totalNodeW += x
		}
		return out, nil
	}
	if gate.Stopped() {
		return nil, gate.Err()
	}
	w := par.Workers(workers, len(g.arcs), contractMinArcs)

	// Invert group: members of coarse node c, in ascending fine id
	// (counting sort — deterministic regardless of workers), and sum the
	// coarse node weights if asked to.
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
		if sumWeights {
			nw[c] += g.nodeWeight[v]
		}
	}

	type shard struct {
		arcs    []Arc
		edges   int
		weights int64
	}
	shards := make([]shard, w)
	degree := cursor // reuse: degree[c] = merged degree of coarse node c
	par.Run(w, w, func(_, p int) {
		glo, ghi := par.Split(numGroups, w, p)
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
		out.totalNodeW += nw[c]
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
