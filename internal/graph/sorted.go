package graph

import (
	"context"

	"focus/internal/par"
)

// FromSortedEdgesCtx builds the graph of n unit-weight nodes from m edges
// that edge(i) yields already in CSR order: canonical (u < v, both in
// [0,n)) and non-decreasing by (u, v). In that order a plain scatter is
// already sorted — every lower neighbour of a node is written before its
// first higher one, each group ascending — and parallel edges are adjacent,
// so the CSR is written directly: one counting scan that doubles as the
// order check, a prefix sum, one scatter. No edge staging, no per-node sort
// and no compaction; the scans are serial and memory-bound.
//
// ordered is false, and nothing is built, when the edges are not in that
// order (self-loops and out-of-range endpoints included); the caller then
// takes the Builder, which accepts any order and reports range errors. The
// result is Equal to the Builder's. A nil ctx never cancels; a cancel
// observed between the scans returns the context's cause.
func FromSortedEdgesCtx(ctx context.Context, n, m int, edge func(i int) (u, v int32, w int64)) (g *Graph, ordered bool, err error) {
	gate := par.GateFor(ctx)
	if gate.Stopped() {
		return nil, false, gate.Err()
	}
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

	g = &Graph{nodeWeight: make([]int64, n), offsets: offsets, totalNodeW: int64(n)}
	for i := range g.nodeWeight {
		g.nodeWeight[i] = 1
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
