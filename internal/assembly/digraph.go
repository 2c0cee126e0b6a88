// Package assembly implements the distributed graph algorithms of paper
// §V on the partitioned hybrid graph: transitive edge reduction,
// containment removal, error removal (dead-end trimming and bubble
// popping), and maximal-path graph traversal with master-side sub-path
// joining, followed by contig construction and assembly statistics.
package assembly

import (
	"fmt"
	"slices"

	"focus/internal/graph"
	"focus/internal/hybrid"
	"focus/internal/overlap"
	"focus/internal/par"
)

// Edge is a directed overlap between two hybrid-graph contigs: To's contig
// starts Diag bases into From's contig. Contain marks containment edges
// (To's contig lies entirely within From's).
type Edge struct {
	From, To int32
	Diag     int32
	Len      int32 // estimated overlap length in bases
	Ident    float32
	Contain  bool
}

// DiGraph is the mutable directed hybrid graph the distributed algorithms
// operate on. Node ids are hybrid-graph node ids.
type DiGraph struct {
	Contigs [][]byte
	// Weight is the number of reads behind each node (coverage proxy used
	// to pick bubble branches).
	Weight  []int64
	Removed []bool
	Out     [][]Edge
	In      [][]Edge

	// outBuf/inBuf are the reusable scratches behind liveOut/liveIn: the
	// join and contig-build passes issue one live-neighbour query per path
	// step, and per-call filtered allocations dominated their profiles.
	outBuf, inBuf []Edge
}

// NumNodes returns the node count including removed nodes.
func (g *DiGraph) NumNodes() int { return len(g.Contigs) }

// NumEdges returns the number of live directed edges.
func (g *DiGraph) NumEdges() int {
	n := 0
	for v := range g.Out {
		if !g.Removed[v] {
			for _, e := range g.Out[v] {
				if !g.Removed[e.To] {
					n++
				}
			}
		}
	}
	return n
}

// OutEdge returns the edge v->w if present and live.
func (g *DiGraph) OutEdge(v, w int32) (Edge, bool) {
	for _, e := range g.Out[v] {
		if e.To == w {
			return e, true
		}
	}
	return Edge{}, false
}

// RemoveEdge deletes the directed edge from->to (no-op if absent).
func (g *DiGraph) RemoveEdge(from, to int32) {
	g.Out[from] = dropEdge(g.Out[from], from, to)
	g.In[to] = dropEdge(g.In[to], from, to)
}

func dropEdge(edges []Edge, from, to int32) []Edge {
	out := edges[:0]
	for _, e := range edges {
		if !(e.From == from && e.To == to) {
			out = append(out, e)
		}
	}
	return out
}

// RemoveNode marks v removed and detaches its incident edges.
func (g *DiGraph) RemoveNode(v int32) {
	if g.Removed[v] {
		return
	}
	g.Removed[v] = true
	for _, e := range g.Out[v] {
		g.In[e.To] = dropEdge(g.In[e.To], v, e.To)
	}
	for _, e := range g.In[v] {
		g.Out[e.From] = dropEdge(g.Out[e.From], e.From, v)
	}
	g.Out[v] = nil
	g.In[v] = nil
}

// liveOut / liveIn return the non-containment live neighbours used by the
// traversal rules. The result is a view into a per-graph scratch buffer,
// valid only until the same method's next call (separate buffers per
// direction, so one liveOut and one liveIn result may be held together).
// Not safe for concurrent use — the master's join/build code is
// single-threaded.
func (g *DiGraph) liveOut(v int32) []Edge {
	out := g.outBuf[:0]
	for _, e := range g.Out[v] {
		if !e.Contain && !g.Removed[e.To] {
			out = append(out, e)
		}
	}
	g.outBuf = out
	return out
}

func (g *DiGraph) liveIn(v int32) []Edge {
	in := g.inBuf[:0]
	for _, e := range g.In[v] {
		if !e.Contain && !g.Removed[e.From] {
			in = append(in, e)
		}
	}
	g.inBuf = in
	return in
}

// BuildDiGraph derives the directed hybrid graph from the hybrid nodes and
// the read-level overlap records: for every pair of adjacent hybrid nodes
// the crossing records vote (via the read layout offsets) on the relative
// contig placement, and the median placement orients the edge.
//
// h.G already names every pair that can receive a vote, so the votes are
// bucketed by h.G's CSR arc slot with a counting sort that runs on chunks
// of records in parallel (each slot's votes, and so its median and its
// identity sum, in record order) and Out/In are carved from one arena,
// each list ascending by neighbour. recs must be the records h was built
// from: a record that names a read outside h.RepOf, or whose ends lie in
// hybrid nodes h.G does not join, is an error.
func BuildDiGraph(h *hybrid.Hybrid, recs []overlap.Record) (*DiGraph, error) {
	return buildDiGraph(h, recs, 0)
}

// voteGrain is the record count below which one more vote-pass worker does
// not pay for its slot-sized count array.
const voteGrain = 1 << 15

// buildDiGraph is BuildDiGraph with the record vote pass on at most workers
// goroutines (<= 0 lets the par governor size it). The graph is identical
// at any width.
func buildDiGraph(h *hybrid.Hybrid, recs []overlap.Record, workers int) (*DiGraph, error) {
	n := len(h.Nodes)
	if h.G == nil {
		return nil, fmt.Errorf("assembly: digraph: hybrid has no graph")
	}
	if h.G.NumNodes() != n {
		return nil, fmt.Errorf("assembly: digraph: hybrid graph has %d nodes for %d hybrid nodes", h.G.NumNodes(), n)
	}
	g := &DiGraph{
		Contigs: make([][]byte, n),
		Weight:  make([]int64, n),
		Removed: make([]bool, n),
		Out:     make([][]Edge, n),
		In:      make([][]Edge, n),
	}
	// Read -> offset in its representative's contig.
	numReads := len(h.RepOf)
	readOff := make([]int32, numReads)
	for i, node := range h.Nodes {
		g.Contigs[i] = node.Contig
		g.Weight[i] = int64(len(node.Members))
		for j, m := range node.Members {
			if m < 0 || m >= numReads {
				return nil, fmt.Errorf("assembly: digraph: hybrid node %d lists read %d, outside [0,%d)", i, m, numReads)
			}
			readOff[m] = int32(node.Offsets[j])
		}
	}

	// slotOff[v] is the CSR slot of v's first arc in h.G; the votes of the
	// pair lo < hi are kept under the slot of the arc lo->hi.
	slotOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		slotOff[v+1] = slotOff[v] + int32(h.G.Degree(v))
	}
	numSlots := slotOff[n]

	// slotOf places record ri: the slot of the pair its ends' hybrid nodes
	// form, or -1 for a record inside one hybrid node. Records come sorted
	// by read pair, so runs of them join the same two hybrid nodes: last
	// remembers the previous pair's slot.
	type pairSlot struct {
		lo, hi int
		slot   int32
	}
	slotOf := func(ri int, last *pairSlot) (int32, error) {
		r := recs[ri]
		if r.A < 0 || int(r.A) >= numReads || r.B < 0 || int(r.B) >= numReads {
			return 0, fmt.Errorf("assembly: digraph: record %d (%d,%d) names a read outside [0,%d)", ri, r.A, r.B, numReads)
		}
		lo, hi := h.RepOf[r.A], h.RepOf[r.B]
		if lo == hi {
			return -1, nil
		}
		if lo < 0 || lo >= n || hi < 0 || hi >= n {
			return 0, fmt.Errorf("assembly: digraph: record %d maps to hybrid nodes (%d,%d), outside [0,%d)", ri, lo, hi, n)
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo != last.lo || hi != last.hi {
			i, found := slices.BinarySearchFunc(h.G.Adj(lo), hi, func(a graph.Arc, to int) int { return a.To - to })
			if !found {
				return 0, fmt.Errorf("assembly: digraph: record %d crosses hybrid nodes %d and %d, which the hybrid graph does not join", ri, lo, hi)
			}
			*last = pairSlot{lo, hi, slotOff[lo] + int32(i)}
		}
		return last.slot, nil
	}

	// The vote pass runs on contiguous record chunks, one per worker. The
	// first sweep notes every record's slot and counts each chunk's votes
	// per slot; a chunk stops at its first bad record, and the lowest
	// chunk's is reported. A prefix over (slot, chunk) then gives every
	// chunk its write cursors, and the second sweep puts each vote's
	// diagonal and identity there, so each slot's votes lie in record order
	// at any width.
	slots := make([]int32, len(recs))
	w := par.Workers(workers, len(recs), voteGrain)
	counts := make([][]int32, w)
	errs := make([]error, w)
	par.Run(w, w, func(_, c int) {
		count := make([]int32, numSlots)
		last := pairSlot{lo: -1}
		lo, hi := par.Split(len(recs), w, c)
		for ri := lo; ri < hi; ri++ {
			slot, err := slotOf(ri, &last)
			if err != nil {
				errs[c] = err
				return
			}
			slots[ri] = slot
			if slot >= 0 {
				count[slot]++
			}
		}
		counts[c] = count
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	voteOff := make([]int32, numSlots+1)
	for s := int32(0); s < numSlots; s++ {
		at := voteOff[s]
		for _, count := range counts {
			count[s], at = at, at+count[s]
		}
		voteOff[s+1] = at
	}
	diags := make([]int32, voteOff[numSlots])
	voteIdents := make([]float32, voteOff[numSlots])
	par.Run(w, w, func(_, c int) {
		at := counts[c]
		lo, hi := par.Split(len(recs), w, c)
		for ri := lo; ri < hi; ri++ {
			slot := slots[ri]
			if slot < 0 {
				continue
			}
			// Position of the higher node's contig start in the lower
			// node's contig coordinates.
			r := recs[ri]
			d := readOff[r.A] + r.Diag - readOff[r.B]
			if h.RepOf[r.A] > h.RepOf[r.B] {
				d = -d
			}
			diags[at[slot]] = d
			voteIdents[at[slot]] = r.Identity
			at[slot]++
		}
	})

	// One edge per voted pair, in (lo, hi) order: every list of Out and In
	// then fills in ascending neighbour order, lower neighbours first.
	edges := make([]Edge, 0, h.G.NumEdges())
	outDeg, inDeg := make([]int32, n), make([]int32, n)
	for lo := 0; lo < n; lo++ {
		for i, a := range h.G.Adj(lo) {
			slot := slotOff[lo] + int32(i)
			ds := diags[voteOff[slot]:voteOff[slot+1]]
			if len(ds) == 0 {
				continue // an arc hi->lo, or a pair no record voted on
			}
			slices.Sort(ds)
			d := int(ds[len(ds)/2]) // median placement
			// Identities are summed in record order, as the votes lie.
			var identSum float64
			for _, x := range voteIdents[voteOff[slot]:voteOff[slot+1]] {
				identSum += float64(x)
			}
			ident := float32(identSum / float64(len(ds)))
			e := placeEdge(int32(lo), int32(a.To), d, len(g.Contigs[lo]), len(g.Contigs[a.To]), ident)
			if e.Len <= 0 {
				continue // crossing records imply no usable contig overlap
			}
			edges = append(edges, e)
			outDeg[e.From]++
			inDeg[e.To]++
		}
	}
	arena := make([]Edge, 2*len(edges))
	for v, pos := 0, 0; v < n; v++ {
		// Zero length, capacity fixed: the fill below appends in place and a
		// later append by a caller reallocates instead of overrunning.
		if d := int(outDeg[v]); d > 0 {
			g.Out[v] = arena[pos : pos : pos+d]
			pos += d
		}
		if d := int(inDeg[v]); d > 0 {
			g.In[v] = arena[pos : pos : pos+d]
			pos += d
		}
	}
	for _, e := range edges {
		g.Out[e.From] = append(g.Out[e.From], e)
		g.In[e.To] = append(g.In[e.To], e)
	}
	return g, nil
}

// placeEdge orients the edge between hybrid nodes lo < hi whose contigs are
// lenLo and lenHi long, given that hi's contig starts d bases into lo's.
func placeEdge(lo, hi int32, d, lenLo, lenHi int, ident float32) Edge {
	switch {
	case d >= 0 && d+lenHi <= lenLo:
		return Edge{From: lo, To: hi, Diag: int32(d), Len: int32(lenHi), Ident: ident, Contain: true}
	case d <= 0 && -d+lenLo <= lenHi:
		return Edge{From: hi, To: lo, Diag: int32(-d), Len: int32(lenLo), Ident: ident, Contain: true}
	case d > 0:
		return Edge{From: lo, To: hi, Diag: int32(d), Len: int32(lenLo - d), Ident: ident}
	default:
		return Edge{From: hi, To: lo, Diag: int32(-d), Len: int32(lenHi + d), Ident: ident}
	}
}

// Clone returns a graph the caller may trim freely without touching g:
// Weight, Removed and every Out/In list are copied (the lists into one
// arena); the contigs, which no phase writes, are shared.
func (g *DiGraph) Clone() *DiGraph {
	n := len(g.Contigs)
	c := &DiGraph{
		Contigs: g.Contigs,
		Weight:  slices.Clone(g.Weight),
		Removed: slices.Clone(g.Removed),
		Out:     make([][]Edge, n),
		In:      make([][]Edge, n),
	}
	total := 0
	for v := 0; v < n; v++ {
		total += len(g.Out[v]) + len(g.In[v])
	}
	arena := make([]Edge, 0, total)
	// carve copies a list, keeping nil as nil and fixing the capacity so an
	// append to the copy cannot reach the next list.
	carve := func(src []Edge) []Edge {
		if src == nil {
			return nil
		}
		lo := len(arena)
		arena = append(arena, src...)
		return arena[lo:len(arena):len(arena)]
	}
	for v := 0; v < n; v++ {
		c.Out[v] = carve(g.Out[v])
		c.In[v] = carve(g.In[v])
	}
	return c
}

// Validate checks Out/In symmetry.
func (g *DiGraph) Validate() error {
	for v := range g.Out {
		for _, e := range g.Out[v] {
			if e.From != int32(v) {
				return fmt.Errorf("assembly: edge %d->%d stored under %d", e.From, e.To, v)
			}
			found := false
			for _, ie := range g.In[e.To] {
				if ie == e {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("assembly: edge %d->%d missing from In", e.From, e.To)
			}
		}
	}
	return nil
}
