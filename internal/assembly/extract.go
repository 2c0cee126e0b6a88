package assembly

import (
	"sync"

	"focus/internal/par"
)

// This file is the master's subgraph send path: building each partition's
// wire view (Subgraph) from the current graph, for Load, re-hosting and
// the master's local fallback. Membership is a per-worker epoch-stamped
// dense mark array, slices are presized by counting, and the
// per-partition extractions fan out over a bounded pool. Node order is
// first-encounter order (local ids, then each local id's out- then
// in-neighbours), so the output — and therefore the bytes on the wire —
// is identical at any worker count.

// extractScratch is one extractor worker's reusable state.
type extractScratch struct {
	mark  []int32 // mark[id] == epoch ⇔ id is in the current subgraph (or stored set)
	epoch int32
	ids   []int32 // first-encounter order of the current subgraph
}

// next starts a fresh mark epoch: no id is marked under it yet.
func (sc *extractScratch) next() int32 {
	sc.epoch++
	if sc.epoch <= 0 { // int32 wrap: re-zero and restart epochs
		clear(sc.mark)
		sc.epoch = 1
	}
	return sc.epoch
}

// extractor builds partition subgraphs against a fixed graph, recycling
// scratches across calls (the driver keeps one per run; the scans of a
// phase reuse its scratches in every later phase).
type extractor struct {
	g      *DiGraph
	labels []int32

	mu   sync.Mutex
	free []*extractScratch
}

func (x *extractor) get() *extractScratch {
	x.mu.Lock()
	defer x.mu.Unlock()
	if n := len(x.free); n > 0 {
		sc := x.free[n-1]
		x.free = x.free[:n-1]
		return sc
	}
	return &extractScratch{mark: make([]int32, x.g.NumNodes())}
}

func (x *extractor) put(sc *extractScratch) {
	x.mu.Lock()
	x.free = append(x.free, sc)
	x.mu.Unlock()
}

// subgraph builds the wire view of one partition using sc. Cost is
// proportional to the partition's closed neighbourhood, not the graph.
func (x *extractor) subgraph(sc *extractScratch, part int32, local []int32) Subgraph {
	g := x.g
	epoch := sc.next()
	mark := sc.mark
	ids := sc.ids[:0]
	add := func(id int32) {
		if mark[id] != epoch {
			mark[id] = epoch
			ids = append(ids, id)
		}
	}
	for _, id := range local {
		add(id)
		for _, e := range g.Out[id] {
			if !g.Removed[e.To] {
				add(e.To)
			}
		}
		for _, e := range g.In[id] {
			if !g.Removed[e.From] {
				add(e.From)
			}
		}
	}
	sc.ids = ids

	sub := Subgraph{Part: part, Local: local}
	sub.Nodes = make([]WireNode, len(ids))
	for i, id := range ids {
		sub.Nodes[i] = WireNode{
			ID: id, Part: x.labels[id], Weight: g.Weight[id], Contig: g.Contigs[id],
		}
	}
	// All edges within the closed neighbourhood: count, then fill exactly.
	nEdges := 0
	for _, id := range ids {
		for _, e := range g.Out[id] {
			if mark[e.To] == epoch {
				nEdges++
			}
		}
	}
	sub.Edges = make([]Edge, 0, nEdges)
	for _, id := range ids {
		for _, e := range g.Out[id] {
			if mark[e.To] == epoch {
				sub.Edges = append(sub.Edges, e)
			}
		}
	}
	return sub
}

// subgraphs extracts every partition's view over a bounded worker pool
// (sized by par.Limit: workers <= 0 means GOMAXPROCS). Each output index
// depends only on its partition, so the result is identical at any worker
// count. The cancellation gate is polled at the per-partition grain
// boundary: a stopped gate abandons the remaining partitions and returns
// a partial result (memory-safe — untouched entries are zero Subgraphs),
// which the caller discards after checking its context. A nil gate is the
// zero-cost uncancellable path.
func (x *extractor) subgraphs(parts [][]int32, workers int, gate *par.Gate) []Subgraph {
	out := make([]Subgraph, len(parts))
	scs := make([]*extractScratch, par.Limit(workers))
	par.Run(len(scs), len(parts), func(w, t int) {
		if gate.Stopped() {
			return
		}
		if scs[w] == nil {
			scs[w] = x.get()
		}
		out[t] = x.subgraph(scs[w], int32(t), parts[t])
	})
	for _, sc := range scs {
		if sc != nil {
			x.put(sc)
		}
	}
	return out
}
