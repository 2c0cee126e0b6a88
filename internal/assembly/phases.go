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
	// Stateful is ignored. The delta protocol, where partitions are
	// shipped to their workers once and each phase sends only the
	// removals they store, is the only assembly protocol; the field
	// stays so that callers which set it still compile.
	Stateful bool
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

// viewParts selects which adjacency halves a CSR build materialises (the
// transitive scan reads out-adjacency only — its in-half would be pure
// wasted work).
type viewParts uint8

const (
	viewOut viewParts = 1 << iota
	viewIn
)

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
	ps := getPhaseScratch()
	defer putPhaseScratch(ps)
	c := ps.buildCSR(sub, viewOut|viewIn)
	inPath := ps.marks(len(c.ids))
	// joins reports whether the walk may step onto node i.
	joins := func(i int32) bool { return c.part[i] == sub.Part && c.isLocal[i] && !inPath[i] }
	right, left := ps.right, ps.left
	var paths [][]int32
	for _, id := range c.local {
		if inPath[id] {
			continue
		}
		inPath[id] = true
		right = append(right[:0], id)
		for cur := id; ; {
			outs := c.liveOut(cur)
			if len(outs) != 1 {
				break
			}
			nxt := outs[0].to
			if !joins(nxt) || len(c.liveIn(nxt)) != 1 {
				break
			}
			right = append(right, nxt)
			inPath[nxt] = true
			cur = nxt
		}
		// The left extension is collected nearest-first and reversed into
		// place.
		left = left[:0]
		for cur := id; ; {
			ins := c.liveIn(cur)
			if len(ins) != 1 {
				break
			}
			prv := ins[0].to
			if !joins(prv) || len(c.liveOut(prv)) != 1 {
				break
			}
			left = append(left, prv)
			inPath[prv] = true
			cur = prv
		}
		path := make([]int32, 0, len(left)+len(right))
		for i := len(left) - 1; i >= 0; i-- {
			path = append(path, c.ids[left[i]])
		}
		for _, i := range right {
			path = append(path, c.ids[i])
		}
		paths = append(paths, path)
	}
	ps.right, ps.left = right, left
	return paths
}
