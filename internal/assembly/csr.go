package assembly

import (
	"sync"

	"focus/internal/align"
)

// This file is the worker scans' data layer (DESIGN.md §14): a flat
// compressed-sparse-row view of one Subgraph shared by the transitive,
// containment and error scans, path extraction and variant calling. Arcs
// are packed 12-byte records over dense local indices; within each node's
// arc range the live (non-containment) arcs come first, so the
// live-neighbour subsets the scans hammer are zero-cost subslices. All
// buffers live in pooled scratch and amortize across phase calls — one
// subgraph scan performs O(1) allocations regardless of size.

// csrArc is one adjacency entry: `to` is the local index of the neighbour
// (the head for out-arcs, the tail for in-arcs), diag/alen mirror
// Edge.Diag/Edge.Len — everything the scans read.
type csrArc struct {
	to   int32
	diag int32
	alen int32
}

// edgeCSR is the indexed form of a Subgraph. Node attributes are dense
// arrays over local indices; ids maps back to wire node ids. Ids that
// appear only as edge endpoints (absent from sub.Nodes) get zero-valued
// attributes, matching the map oracle's miss semantics.
type edgeCSR struct {
	ids     []int32 // local index -> node id (first-encounter order)
	part    []int32
	weight  []int64
	contig  [][]byte
	isLocal []bool
	local   []int32 // local indices of sub.Local, in order (dups kept)

	outStart []int32 // len(ids)+1 offsets into outArcs
	outLive  []int32 // end of the live prefix of each node's out range
	outArcs  []csrArc
	inStart  []int32
	inLive   []int32
	inArcs   []csrArc
}

func (c *edgeCSR) out(i int32) []csrArc     { return c.outArcs[c.outStart[i]:c.outStart[i+1]] }
func (c *edgeCSR) liveOut(i int32) []csrArc { return c.outArcs[c.outStart[i]:c.outLive[i]] }
func (c *edgeCSR) in(i int32) []csrArc      { return c.inArcs[c.inStart[i]:c.inStart[i+1]] }
func (c *edgeCSR) liveIn(i int32) []csrArc  { return c.inArcs[c.inStart[i]:c.inLive[i]] }

// idIndex is a generation-stamped open-addressing map from node id to
// local index, reused across phase calls without clearing.
type idIndex struct {
	slots []idSlot
	mask  uint32
	gen   uint32
}

type idSlot struct {
	gen     uint32
	id, idx int32
}

// reset prepares the table for up to `adds` lookupOrAdd calls (load stays
// <= 50% since distinct ids <= adds).
func (x *idIndex) reset(adds int) {
	need := 16
	for need < 2*adds {
		need <<= 1
	}
	if len(x.slots) < need {
		x.slots = make([]idSlot, need)
		x.gen = 0
	}
	x.mask = uint32(len(x.slots) - 1)
	x.gen++
	if x.gen == 0 { // uint32 wrap: hard-clear stale stamps
		for i := range x.slots {
			x.slots[i].gen = 0
		}
		x.gen = 1
	}
}

// lookupOrAdd returns id's local index, appending a zero-attribute node
// to c on first encounter.
func (x *idIndex) lookupOrAdd(c *edgeCSR, id int32) int32 {
	h := (uint32(id) * 0x9E3779B1) & x.mask
	for {
		s := &x.slots[h]
		if s.gen != x.gen {
			idx := int32(len(c.ids))
			*s = idSlot{gen: x.gen, id: id, idx: idx}
			c.ids = append(c.ids, id)
			c.part = append(c.part, 0)
			c.weight = append(c.weight, 0)
			c.contig = append(c.contig, nil)
			c.isLocal = append(c.isLocal, false)
			return idx
		}
		if s.id == id {
			return s.idx
		}
		h = (h + 1) & x.mask
	}
}

// get returns the local index of a previously added id.
func (x *idIndex) get(id int32) int32 {
	h := (uint32(id) * 0x9E3779B1) & x.mask
	for {
		s := &x.slots[h]
		if s.id == id && s.gen == x.gen {
			return s.idx
		}
		h = (h + 1) & x.mask
	}
}

// blockStage is one row block's staged output; blocks are assembled in
// index order after the parallel scan, keeping results independent of the
// worker count.
type blockStage struct {
	pairs []EdgePair
	nodes []int32
}

// rowScratch is one scan worker's private state: the dense/hash diagonal
// accumulator of the transitive product, the alignment scratch of the
// containment scan, and the chain buffer of the dead-end walk. Owned by
// exactly one goroutine at a time.
type rowScratch struct {
	acc   stampAccum
	al    align.Scratch
	chain []int32
}

var rowScratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// phaseScratch is the per-call state of one CSR scan: the CSR view, its
// build-time counters, block staging and the dedupe key buffer. Acquired
// from a pool at scan entry and returned (with contig references dropped)
// on exit.
type phaseScratch struct {
	csr edgeCSR
	idx idIndex

	deg    []int32 // scatter counters, reused per direction
	liven  []int32
	cursor []int32

	keys   []uint64
	blocks []blockStage
	row    []*rowScratch // per-worker slots, populated lazily under par.Run

	// Path extraction's visited flags and walk buffers.
	mark        []bool
	right, left []int32
}

var phaseScratchPool = sync.Pool{New: func() any { return new(phaseScratch) }}

func getPhaseScratch() *phaseScratch { return phaseScratchPool.Get().(*phaseScratch) }

func putPhaseScratch(ps *phaseScratch) {
	// Drop contig references so the pool does not pin read sequences
	// beyond the scan, and return the worker scratches.
	c := &ps.csr
	for i := range c.contig {
		c.contig[i] = nil
	}
	for i, rs := range ps.row {
		if rs != nil {
			rowScratchPool.Put(rs)
			ps.row[i] = nil
		}
	}
	phaseScratchPool.Put(ps)
}

// stageBlocks returns nb reset block stages.
func (ps *phaseScratch) stageBlocks(nb int) []blockStage {
	if cap(ps.blocks) < nb {
		ps.blocks = make([]blockStage, nb)
	}
	ps.blocks = ps.blocks[:nb]
	for i := range ps.blocks {
		ps.blocks[i].pairs = ps.blocks[i].pairs[:0]
		ps.blocks[i].nodes = ps.blocks[i].nodes[:0]
	}
	return ps.blocks
}

// workerSlots presizes the per-worker scratch slots before a par.Run so
// the goroutines only write their own index.
func (ps *phaseScratch) workerSlots(w int) {
	if cap(ps.row) < w {
		ps.row = make([]*rowScratch, w)
	}
	ps.row = ps.row[:w]
}

// workerScratch resolves worker w's rowScratch, fetching from the pool on
// first use. Each worker index is touched by exactly one goroutine.
func (ps *phaseScratch) workerScratch(w int) *rowScratch {
	rs := ps.row[w]
	if rs == nil {
		rs = rowScratchPool.Get().(*rowScratch)
		ps.row[w] = rs
	}
	return rs
}

// marks returns n cleared flags reusing ps.mark's storage.
func (ps *phaseScratch) marks(n int) []bool {
	if cap(ps.mark) < n {
		ps.mark = make([]bool, n)
	}
	ps.mark = ps.mark[:n]
	clear(ps.mark)
	return ps.mark
}

// grow32 returns a zeroed int32 slice of length n reusing buf's storage.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growArcs(buf []csrArc, n int) []csrArc {
	if cap(buf) < n {
		return make([]csrArc, n)
	}
	return buf[:n]
}

// buildCSR (re)builds ps.csr from sub. parts selects which adjacency
// halves to scatter (viewOut/viewIn; the live boundaries come free).
// Node indices are assigned in first-encounter order over sub.Nodes,
// sub.Local, then edge endpoints, so ids absent from sub.Nodes (legal in
// arbitrary wire subgraphs) still resolve, with zero attributes.
func (ps *phaseScratch) buildCSR(sub *Subgraph, parts viewParts) *edgeCSR {
	c := &ps.csr
	c.ids = c.ids[:0]
	c.part = c.part[:0]
	c.weight = c.weight[:0]
	c.contig = c.contig[:0]
	c.isLocal = c.isLocal[:0]
	ps.idx.reset(len(sub.Nodes) + len(sub.Local) + 2*len(sub.Edges))
	for i := range sub.Nodes {
		ps.idx.lookupOrAdd(c, sub.Nodes[i].ID)
	}
	for _, id := range sub.Local {
		ps.idx.lookupOrAdd(c, id)
	}
	for i := range sub.Edges {
		ps.idx.lookupOrAdd(c, sub.Edges[i].From)
		ps.idx.lookupOrAdd(c, sub.Edges[i].To)
	}
	// Attributes: later duplicates in sub.Nodes overwrite earlier ones,
	// matching the map oracle's last-write-wins build.
	for i := range sub.Nodes {
		n := &sub.Nodes[i]
		j := ps.idx.get(n.ID)
		c.part[j] = n.Part
		c.weight[j] = n.Weight
		c.contig[j] = n.Contig
	}
	c.local = c.local[:0]
	for _, id := range sub.Local {
		j := ps.idx.get(id)
		c.isLocal[j] = true
		c.local = append(c.local, j)
	}
	if parts&viewOut != 0 {
		c.outStart, c.outLive, c.outArcs = ps.scatter(sub, c.outStart, c.outLive, c.outArcs, true)
	}
	if parts&viewIn != 0 {
		c.inStart, c.inLive, c.inArcs = ps.scatter(sub, c.inStart, c.inLive, c.inArcs, false)
	}
	return c
}

// scatter builds one adjacency direction with a stable two-pass counting
// sort: pass one places live arcs, pass two containment arcs, so each
// node's range is live-first with the original edge order preserved
// within each class (the same order the map oracle's live lists keep).
func (ps *phaseScratch) scatter(sub *Subgraph, start, live []int32, arcs []csrArc, outDir bool) ([]int32, []int32, []csrArc) {
	c := &ps.csr
	n := len(c.ids)
	ps.deg = grow32(ps.deg, n)
	ps.liven = grow32(ps.liven, n)
	deg, liven := ps.deg, ps.liven
	for i := range sub.Edges {
		e := &sub.Edges[i]
		src := e.From
		if !outDir {
			src = e.To
		}
		j := ps.idx.get(src)
		deg[j]++
		if !e.Contain {
			liven[j]++
		}
	}
	if cap(start) < n+1 {
		start = make([]int32, n+1)
	}
	start = start[:n+1]
	live = grow32(live, n)
	s := int32(0)
	for i := 0; i < n; i++ {
		start[i] = s
		live[i] = s + liven[i]
		s += deg[i]
	}
	start[n] = s
	arcs = growArcs(arcs, int(s))
	ps.cursor = grow32(ps.cursor, n)
	cursor := ps.cursor
	copy(cursor, start[:n])
	for pass := 0; pass < 2; pass++ {
		contain := pass == 1
		for i := range sub.Edges {
			e := &sub.Edges[i]
			if e.Contain != contain {
				continue
			}
			src, dst := e.From, e.To
			if !outDir {
				src, dst = dst, src
			}
			j := ps.idx.get(src)
			arcs[cursor[j]] = csrArc{to: ps.idx.get(dst), diag: e.Diag, alen: e.Len}
			cursor[j]++
		}
	}
	return start, live, arcs
}
