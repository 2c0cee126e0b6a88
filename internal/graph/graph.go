// Package graph provides the weighted graph representation shared by the
// coarsening, hybrid-graph and partitioning stages. The overlap graph G0
// (paper §II.C) has one node per read and one weighted edge per accepted
// overlap, the edge weight being the alignment length.
//
// Graphs are stored in CSR (compressed sparse row) form: one offsets
// array plus one packed arcs array, adjacency sorted by neighbour id
// within each node. Construction merges parallel edges with a sort-based
// counting pipeline (see csr.go) that runs on a bounded worker pool and
// produces an identical graph at any worker count.
package graph

import (
	"context"
	"fmt"

	"focus/internal/par"
)

// Arc is one directed half of an undirected weighted edge.
type Arc struct {
	To int
	W  int64
}

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

// TotalEdgeWeight returns the sum of all edge weights.
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
		if g.arcs[mid].To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(g.offsets[u+1]) && g.arcs[lo].To == v {
		return g.arcs[lo].W
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

// Builder accumulates edges for a Graph.
type Builder struct {
	n          int
	nodeWeight []int64
	edges      []Edge
}

// NewBuilder creates a builder for n nodes, all with weight 1.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, nodeWeight: make([]int64, n)}
	for i := range b.nodeWeight {
		b.nodeWeight[i] = 1
	}
	return b
}

// SetNodeWeight overrides the weight of node v.
func (b *Builder) SetNodeWeight(v int, w int64) { b.nodeWeight[v] = w }

// AddEdge records an undirected edge {u,v} with weight w. Multiple
// additions of the same pair accumulate. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int, w int64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return nil
	}
	b.edges = append(b.edges, Edge{U: int32(u), V: int32(v), W: w})
	return nil
}

// AddEdges bulk-appends edges (self-loops are skipped, weights of repeated
// pairs accumulate at Build).
func (b *Builder) AddEdges(edges []Edge) error {
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= b.n || e.V < 0 || int(e.V) >= b.n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, b.n)
		}
	}
	b.edges = append(b.edges, edges...)
	return nil
}

// Build assembles the graph, merging parallel edges, on a worker pool
// sized by GOMAXPROCS. The result is identical at any worker count.
func (b *Builder) Build() *Graph { return b.BuildPar(0) }

// BuildPar is Build with an explicit worker count (<= 0 means
// GOMAXPROCS). The output is byte-identical for every worker count.
func (b *Builder) BuildPar(workers int) *Graph {
	return buildCSR(b.n, b.nodeWeight, [][]Edge{b.edges}, workers, nil)
}

// BuildParCtx is BuildPar bounded by ctx: a cancel abandons the build at
// the next pipeline-stage or node-chunk boundary and returns the
// context's cause. A nil ctx never cancels.
func (b *Builder) BuildParCtx(ctx context.Context, workers int) (*Graph, error) {
	gate := par.GateFor(ctx)
	g := buildCSR(b.n, b.nodeWeight, [][]Edge{b.edges}, workers, gate)
	if g == nil {
		return nil, gate.Err()
	}
	return g, nil
}

// FromEdges builds a graph directly from pre-validated edge shards: every
// edge's endpoints must lie in [0,n) (self-loops are dropped). nodeWeight
// is adopted, not copied, and must have n entries. The shards may come
// from concurrent emitters; the result depends only on the multiset of
// edges, not on sharding or worker count.
func FromEdges(n int, nodeWeight []int64, shards [][]Edge, workers int) *Graph {
	return buildCSR(n, nodeWeight, shards, workers, nil)
}

// FromEdgesCtx is FromEdges bounded by ctx (see BuildParCtx).
func FromEdgesCtx(ctx context.Context, n int, nodeWeight []int64, shards [][]Edge, workers int) (*Graph, error) {
	gate := par.GateFor(ctx)
	g := buildCSR(n, nodeWeight, shards, workers, gate)
	if g == nil {
		return nil, gate.Err()
	}
	return g, nil
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

// ProjectToFinest maps an assignment on the coarsest level down to level 0:
// each node inherits the value of its ancestor. A flip-flop buffer pair is
// reused across levels, so the projection allocates at most two slices
// regardless of depth.
func (s *Set) ProjectToFinest(coarsest []int) []int {
	if len(s.Up) == 0 {
		return coarsest
	}
	maxN := 0
	for _, up := range s.Up {
		if len(up) > maxN {
			maxN = len(up)
		}
	}
	bufA := make([]int, maxN)
	var bufB []int
	if len(s.Up) > 1 {
		bufB = make([]int, maxN)
	}
	cur := coarsest
	for i := len(s.Up) - 1; i >= 0; i-- {
		up := s.Up[i]
		next := bufA[:len(up)]
		bufA, bufB = bufB, bufA // cur's storage becomes the next spare
		for v, p := range up {
			next[v] = cur[p]
		}
		cur = next
	}
	return cur
}
