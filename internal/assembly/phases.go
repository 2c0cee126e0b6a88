package assembly

import "slices"

// Config bounds the trimming phases. Defaults follow the paper: false
// positive edges are contig overlaps shorter than 50 bp (§V.B); dead-end
// and bubble limits follow Velvet-style trimming (§V.C).
type Config struct {
	// MinEdgeOverlap is the minimum verified contig-contig overlap; edges
	// below it are false positives (paper: 50 bp).
	MinEdgeOverlap int
	// MinEdgeIdentity is the minimum verified overlap identity.
	MinEdgeIdentity float64
	// Band is the half-width of the verification alignment band.
	Band int
	// DiagTolerance bounds |diag(v,w)+diag(w,x)-diag(v,x)| for an edge to
	// count as transitive.
	DiagTolerance int
	// MaxTipNodes and MinTipLen bound dead-end path removal: a chain of
	// at most MaxTipNodes whose total contig span is under MinTipLen.
	MaxTipNodes int
	MinTipLen   int
	// RPCRetries is the number of other workers a failed partition task
	// is retried on before the phase errors (0 = fail fast, like an MPI
	// job). Applies to the stateless protocol only.
	RPCRetries int
	// Stateful selects the delta protocol: partitions are shipped to
	// their workers once and later phases send only the removals applied
	// since (closer to the paper's MPI ranks, and cheaper on the wire).
	Stateful bool
	// Workers bounds the row-block fan-out of the CSR scans inside one
	// subgraph (<= 0 auto: the par governor sizes the pool from the local
	// node count and GOMAXPROCS). Purely a throughput knob — scan output
	// is identical at any value.
	Workers int
}

// DefaultConfig returns the paper-aligned trimming configuration.
func DefaultConfig() Config {
	return Config{
		MinEdgeOverlap:  50,
		MinEdgeIdentity: 0.90,
		Band:            16,
		DiagTolerance:   8,
		MaxTipNodes:     3,
		MinTipLen:       400,
	}
}

// WireNode is a node shipped to a worker: contigs are included so the
// containment phase can align neighbours locally.
type WireNode struct {
	ID     int32
	Part   int32
	Weight int64
	Contig []byte
}

// Subgraph is one partition's view: the locally owned nodes plus the ghost
// neighbourhood and every edge inside that closed neighbourhood.
type Subgraph struct {
	Part  int32
	Local []int32
	Nodes []WireNode
	Edges []Edge
}

// EdgePair identifies a directed edge on the wire.
type EdgePair struct{ From, To int32 }

// viewParts selects which adjacency halves a view or CSR build
// materialises (the transitive scan reads out-adjacency only — its
// in-half would be pure wasted work).
type viewParts uint8

const (
	viewOut viewParts = 1 << iota
	viewIn
	viewLive // precompute the non-containment subsets (liveOut/liveIn)
)

// view is a worker-local map-indexed form of a Subgraph: path extraction
// and variant calling walk it; the cleaning scans use the edgeCSR.
type view struct {
	sub     *Subgraph
	part    map[int32]int32
	weight  map[int32]int64
	contig  map[int32][]byte
	isLocal map[int32]bool
	out     map[int32][]Edge
	in      map[int32][]Edge
	// lout/lin are the precomputed non-containment subsets served by
	// liveOut/liveIn (see liveSubsets).
	lout map[int32][]Edge
	lin  map[int32][]Edge
}

func newView(sub *Subgraph, parts viewParts) *view {
	v := &view{
		sub:     sub,
		part:    make(map[int32]int32, len(sub.Nodes)),
		weight:  make(map[int32]int64, len(sub.Nodes)),
		contig:  make(map[int32][]byte, len(sub.Nodes)),
		isLocal: make(map[int32]bool, len(sub.Local)),
	}
	for _, n := range sub.Nodes {
		v.part[n.ID] = n.Part
		v.weight[n.ID] = n.Weight
		v.contig[n.ID] = n.Contig
	}
	for _, id := range sub.Local {
		v.isLocal[id] = true
	}
	if parts&viewOut != 0 {
		v.out = make(map[int32][]Edge)
		for _, e := range sub.Edges {
			v.out[e.From] = append(v.out[e.From], e)
		}
		if parts&viewLive != 0 {
			v.lout = liveSubsets(v.out)
		}
	}
	if parts&viewIn != 0 {
		v.in = make(map[int32][]Edge)
		for _, e := range sub.Edges {
			v.in[e.To] = append(v.in[e.To], e)
		}
		if parts&viewLive != 0 {
			v.lin = liveSubsets(v.in)
		}
	}
	return v
}

// liveSubsets precomputes each node's non-containment edges. The scans
// issue many live-neighbour queries per node (path walks, bubble probes),
// so filtering once at view build replaces a per-query filtered
// allocation. Lists without containment edges — the common case — share
// the unfiltered slice.
func liveSubsets(adj map[int32][]Edge) map[int32][]Edge {
	live := make(map[int32][]Edge, len(adj))
	for id, es := range adj {
		contains := 0
		for i := range es {
			if es[i].Contain {
				contains++
			}
		}
		if contains == 0 {
			live[id] = es
			continue
		}
		if contains == len(es) {
			continue // all containment: live list empty, map miss returns nil
		}
		r := make([]Edge, 0, len(es)-contains)
		for _, e := range es {
			if !e.Contain {
				r = append(r, e)
			}
		}
		live[id] = r
	}
	return live
}

func (v *view) liveOut(id int32) []Edge { return v.lout[id] }

func (v *view) liveIn(id int32) []Edge { return v.lin[id] }

// packPair folds an EdgePair into one uint64 whose unsigned order equals
// the (From, To) signed lexicographic order (the sign bit is flipped into
// a bias), so dedupePairs can sort raw integers instead of structs.
func packPair(p EdgePair) uint64 {
	return uint64(uint32(p.From)^0x80000000)<<32 | uint64(uint32(p.To)^0x80000000)
}

func unpackPair(k uint64) EdgePair {
	return EdgePair{
		From: int32(uint32(k>>32) ^ 0x80000000),
		To:   int32(uint32(k) ^ 0x80000000),
	}
}

// dedupePairs sorts pairs by (From, To) and drops duplicates in place.
// *keys is caller-provided scratch (grown as needed and returned through
// the pointer) so repeated scans on pooled state sort allocation-free.
func dedupePairs(pairs []EdgePair, keys *[]uint64) []EdgePair {
	if len(pairs) == 0 {
		return pairs // preserves nil vs empty
	}
	ks := (*keys)[:0]
	for _, p := range pairs {
		ks = append(ks, packPair(p))
	}
	slices.Sort(ks)
	*keys = ks
	n := 0
	for i, k := range ks {
		if i > 0 && k == ks[i-1] {
			continue
		}
		pairs[n] = unpackPair(k)
		n++
	}
	return pairs[:n]
}

// dedupeNodes sorts a node-id list and drops duplicates in place.
func dedupeNodes(ns []int32) []int32 {
	if len(ns) == 0 {
		return ns
	}
	slices.Sort(ns)
	n := 0
	for i, v := range ns {
		if i == 0 || v != ns[i-1] {
			ns[n] = v
			n++
		}
	}
	return ns[:n]
}

// Removal is the result of a containment or error scan.
type Removal struct {
	Nodes []int32
	Edges []EdgePair
}

// ExtractPaths performs the partition-local maximal path extraction of
// paper §V.D: starting from each unvisited local node, the path is grown
// by out-edges while the next node has a unique in-edge, lies in the same
// partition and is unvisited, then symmetrically grown by in-edges.
func ExtractPaths(sub *Subgraph, cfg Config) [][]int32 {
	v := newView(sub, viewOut|viewIn|viewLive)
	inPath := map[int32]bool{}
	var paths [][]int32
	for _, id := range sub.Local {
		if inPath[id] {
			continue
		}
		path := []int32{id}
		inPath[id] = true
		// Extend right.
		cur := id
		for {
			outs := v.liveOut(cur)
			if len(outs) != 1 {
				break
			}
			nxt := outs[0].To
			if v.part[nxt] != sub.Part || !v.isLocal[nxt] || inPath[nxt] {
				break
			}
			if len(v.liveIn(nxt)) != 1 {
				break
			}
			path = append(path, nxt)
			inPath[nxt] = true
			cur = nxt
		}
		// Extend left.
		cur = id
		for {
			ins := v.liveIn(cur)
			if len(ins) != 1 {
				break
			}
			prv := ins[0].From
			if v.part[prv] != sub.Part || !v.isLocal[prv] || inPath[prv] {
				break
			}
			if len(v.liveOut(prv)) != 1 {
				break
			}
			path = append([]int32{prv}, path...)
			inPath[prv] = true
			cur = prv
		}
		paths = append(paths, path)
	}
	return paths
}
