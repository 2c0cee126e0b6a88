// Package graph provides the weighted graph representation shared by the
// coarsening, hybrid-graph and partitioning stages. The overlap graph G0
// (paper §II.C) has one node per read and one weighted edge per accepted
// overlap, the edge weight being the alignment length.
//
// Graphs are stored in CSR (compressed sparse row) form: one offsets
// array plus one packed arcs array, adjacency sorted by neighbour id
// within each node. One writer builds them from edges: FromSortedEdgesCtx
// scatters edges given in sorted canonical order and sums parallel edges
// (see csr.go).
// Contraction merges a graph's nodes into groups on a worker pool and is
// identical at any worker count.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Arc is one directed half of an undirected weighted edge: 8 bytes, since
// node ids are int32 throughout and a stored weight saturates at
// math.MaxInt32 (see storedWeight). Sums of arc weights are taken in int64.
type Arc struct {
	To int32
	W  int32
}

// storedWeight is the weight an arc stores for an edge whose parallel
// copies sum to w (an alignment length or a sum of them, never negative):
// w saturated at math.MaxInt32. Every writer stores through it, and
// TotalEdgeWeight sums the stored weights, so the arc weights of a graph
// always sum to 2·TotalEdgeWeight.
func storedWeight(w int64) int32 { return int32(min(w, math.MaxInt32)) }

// Edge is a weighted undirected edge in bulk-construction form.
type Edge struct {
	U, V int32
	W    int64
}

// Graph is a static undirected weighted graph with weighted nodes.
// Parallel edges are merged at build time (weights summed); self-loops are
// dropped. The adjacency lives in one packed CSR arena: offsets has
// NumNodes()+1 entries and arcs[offsets[v]:offsets[v+1]] is the
// neighbourhood of v, sorted by neighbour id.
type Graph struct {
	nodeWeight []int64
	offsets    []int32
	arcs       []Arc
	totalEdgeW int64 // sum of edge weights, each edge counted once
	totalNodeW int64 // cached sum of node weights
	numEdges   int
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeWeight) }

// NumEdges returns |E| (undirected edges).
func (g *Graph) NumEdges() int { return g.numEdges }

// TotalEdgeWeight returns the sum of all stored edge weights.
func (g *Graph) TotalEdgeWeight() int64 { return g.totalEdgeW }

// NodeWeight returns the weight of node v.
func (g *Graph) NodeWeight(v int) int64 { return g.nodeWeight[v] }

// TotalNodeWeight returns the sum of node weights, cached at build time.
func (g *Graph) TotalNodeWeight() int64 { return g.totalNodeW }

// Adj returns the adjacency list of v, sorted by neighbour id. Callers
// must not modify it.
func (g *Graph) Adj(v int) []Arc {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.arcs[lo:hi:hi]
}

// Degree returns the number of distinct neighbours of v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// EdgeWeight returns the weight of edge {u,v}, or 0 if absent.
func (g *Graph) EdgeWeight(u, v int) int64 {
	lo, hi := int(g.offsets[u]), int(g.offsets[u+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(g.arcs[mid].To) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(g.offsets[u+1]) && int(g.arcs[lo].To) == v {
		return int64(g.arcs[lo].W)
	}
	return 0
}

// Equal reports whether two graphs are byte-identical: same node weights,
// same CSR offsets and same packed arcs.
func (g *Graph) Equal(o *Graph) bool {
	if g.NumNodes() != o.NumNodes() || g.numEdges != o.numEdges ||
		g.totalEdgeW != o.totalEdgeW || g.totalNodeW != o.totalNodeW {
		return false
	}
	for i, w := range g.nodeWeight {
		if o.nodeWeight[i] != w {
			return false
		}
	}
	for i, off := range g.offsets {
		if o.offsets[i] != off {
			return false
		}
	}
	for i, a := range g.arcs {
		if o.arcs[i] != a {
			return false
		}
	}
	return true
}

// Builder accumulates edges in any order for a Graph: the tests' oracle.
type Builder struct {
	nodeWeight []int64
	edges      []Edge
}

// NewBuilder creates a builder for n nodes, all with weight 1.
func NewBuilder(n int) *Builder {
	b := &Builder{nodeWeight: make([]int64, n)}
	for i := range b.nodeWeight {
		b.nodeWeight[i] = 1
	}
	return b
}

// AddEdge records an undirected edge {u,v} with weight w. Multiple
// additions of the same pair accumulate, and the sum is stored saturated
// at math.MaxInt32. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int, w int64) error {
	if n := len(b.nodeWeight); u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return nil
	}
	b.edges = append(b.edges, Edge{U: int32(u), V: int32(v), W: w})
	return nil
}

// Build assembles the graph: the edges, each put as u < v, are sorted into
// CSR order and written by FromSortedEdgesCtx, which merges parallel edges
// by summing their weights. The builder is left unchanged.
func (b *Builder) Build() *Graph {
	edges := make([]Edge, len(b.edges))
	for i, e := range b.edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		edges[i] = e
	}
	slices.SortFunc(edges, func(x, y Edge) int { return cmp.Or(cmp.Compare(x.U, y.U), cmp.Compare(x.V, y.V)) })
	g, _, _ := FromSortedEdgesCtx(nil, b.nodeWeight, len(edges), func(i int) (u, v int32, w int64) {
		return edges[i].U, edges[i].V, edges[i].W
	})
	return g
}

// Set is a coarsening hierarchy: Levels[0] is the finest graph and
// Levels[len-1] the most reduced. Up[i][v] gives the parent of node v of
// Levels[i] in Levels[i+1]. Both the multilevel graph set G = {G0…Gn} and
// the hybrid graph set G' = {G'0…G'n} of the paper are represented this
// way.
type Set struct {
	Levels []*Graph
	Up     [][]int
}

// Validate checks structural invariants of the set.
func (s *Set) Validate() error {
	if len(s.Levels) == 0 {
		return fmt.Errorf("graph: empty set")
	}
	if len(s.Up) != len(s.Levels)-1 {
		return fmt.Errorf("graph: %d levels but %d up-maps", len(s.Levels), len(s.Up))
	}
	for i, up := range s.Up {
		if len(up) != s.Levels[i].NumNodes() {
			return fmt.Errorf("graph: up-map %d has %d entries for %d nodes", i, len(up), s.Levels[i].NumNodes())
		}
		for v, p := range up {
			if p < 0 || p >= s.Levels[i+1].NumNodes() {
				return fmt.Errorf("graph: node %d of level %d maps to invalid parent %d", v, i, p)
			}
		}
	}
	return nil
}

// Coarsest returns the most reduced graph in the set.
func (s *Set) Coarsest() *Graph { return s.Levels[len(s.Levels)-1] }
