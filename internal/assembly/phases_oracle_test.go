package assembly

import (
	"reflect"
	"slices"
	"testing"

	"focus/internal/align"
)

// The serial map-walking scans below are the original implementations of
// the three cleaning phases and path extraction. They are the reference
// the production CSR scans (phases_csr.go, phases.go) are pinned to, byte
// for byte, by the equivalence property suite and FuzzPhaseEngines.

// checkScansMatchOracle requires TransitiveEdges, ContainmentScan,
// ErrorScan and ExtractPaths to return results deeply equal
// (including nil-vs-empty) to the map oracle's on sub; the cleaning scans
// at each of the given worker counts.
func checkScansMatchOracle(t *testing.T, sub *Subgraph, cfg Config, workers ...int) {
	t.Helper()
	if got, want := ExtractPaths(sub, cfg), extractPathsMap(sub); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractPaths diverged\ncsr %v\nmap %v", got, want)
	}
	wantT := transitiveEdgesMap(sub, cfg)
	wantC := containmentScanMap(sub, cfg)
	wantE := errorScanMap(sub, cfg)
	for _, w := range workers {
		if got := transitiveEdges(sub, cfg, w); !reflect.DeepEqual(got, wantT) {
			t.Fatalf("workers %d: TransitiveEdges diverged\ncsr %v\nmap %v", w, got, wantT)
		}
		if got := containmentScan(sub, cfg, w); !reflect.DeepEqual(got, wantC) {
			t.Fatalf("workers %d: ContainmentScan diverged\ncsr %+v\nmap %+v", w, got, wantC)
		}
		if got := errorScan(sub, cfg, w); !reflect.DeepEqual(got, wantE) {
			t.Fatalf("workers %d: ErrorScan diverged\ncsr %+v\nmap %+v", w, got, wantE)
		}
	}
}

func transitiveEdgesMap(sub *Subgraph, cfg Config) []EdgePair {
	v := newView(sub)
	var out []EdgePair
	for _, id := range sub.Local {
		outs := v.liveOut(id)
		if len(outs) < 2 {
			continue
		}
		// Index direct successors.
		direct := make(map[int32]Edge, len(outs))
		for _, e := range outs {
			direct[e.To] = e
		}
		for _, evw := range outs {
			for _, ewx := range v.liveOut(evw.To) {
				evx, ok := direct[ewx.To]
				if !ok || ewx.To == id {
					continue
				}
				want := evw.Diag + ewx.Diag
				d := evx.Diag - want
				if d < 0 {
					d = -d
				}
				if int(d) <= cfg.DiagTolerance {
					out = append(out, EdgePair{From: id, To: evx.To})
				}
			}
		}
	}
	var keys []uint64
	return dedupePairs(out, &keys)
}

func containmentScanMap(sub *Subgraph, cfg Config) Removal {
	v := newView(sub)
	var rm Removal
	nodeSet := map[int32]bool{}
	check := func(e Edge) {
		a, b := v.contig[e.From], v.contig[e.To]
		acfg := align.Config{
			MinLength:   cfg.MinEdgeOverlap,
			MinIdentity: cfg.MinEdgeIdentity,
			Band:        cfg.Band,
			Scoring:     align.DefaultScoring,
		}
		ov, ok := align.OverlapOnDiagonal(a, b, int(e.Diag), acfg)
		if !ok {
			rm.Edges = append(rm.Edges, EdgePair{From: e.From, To: e.To})
			return
		}
		var contained int32 = -1
		switch ov.Kind {
		case align.KindAContainsB:
			contained = e.To
		case align.KindBContainsA:
			contained = e.From
		}
		if contained >= 0 && v.isLocal[contained] && !nodeSet[contained] {
			nodeSet[contained] = true
			rm.Nodes = append(rm.Nodes, contained)
		}
	}
	for _, id := range sub.Local {
		for _, e := range v.out[id] {
			check(e)
		}
		for _, e := range v.in[id] {
			if !v.isLocal[e.From] { // avoid double work for local-local
				check(e)
			}
		}
	}
	var keys []uint64
	rm.Edges = dedupePairs(rm.Edges, &keys)
	slices.Sort(rm.Nodes)
	return rm
}

func errorScanMap(sub *Subgraph, cfg Config) Removal {
	v := newView(sub)
	var rm Removal
	mark := map[int32]bool{}

	// Dead ends: from a local source (no in-edges) walk forward through a
	// unique-successor/unique-predecessor chain; if it attaches to a
	// junction within MaxTipNodes, spans < MinTipLen bases AND is the
	// minority branch at that junction (a strictly heavier sibling edge
	// exists), the chain is a tip. The minority condition keeps
	// legitimate chain heads, which are also in-degree-0. Mirror for
	// sinks.
	walk := func(start int32, fwd bool) {
		chain := []int32{start}
		span := len(v.contig[start])
		cur := start
		for len(chain) <= cfg.MaxTipNodes {
			var next []Edge
			if fwd {
				next = v.liveOut(cur)
			} else {
				next = v.liveIn(cur)
			}
			if len(next) != 1 {
				return // branches or terminates without attachment
			}
			conn := next[0]
			var nb int32
			if fwd {
				nb = conn.To
			} else {
				nb = conn.From
			}
			// Attachment test: the neighbour continues the main graph if
			// it has other incoming (fwd) / outgoing (bwd) edges.
			var back []Edge
			if fwd {
				back = v.liveIn(nb)
			} else {
				back = v.liveOut(nb)
			}
			if len(back) > 1 {
				dominated := false
				for _, e := range back {
					if e != conn && e.Len > conn.Len {
						dominated = true
						break
					}
				}
				if dominated && span < cfg.MinTipLen {
					for _, id := range chain {
						if !mark[id] {
							mark[id] = true
							rm.Nodes = append(rm.Nodes, id)
						}
					}
				}
				return
			}
			chain = append(chain, nb)
			span += len(v.contig[nb]) // upper bound on added span
			cur = nb
		}
	}
	for _, id := range sub.Local {
		if len(v.liveIn(id)) == 0 && len(v.liveOut(id)) == 1 {
			walk(id, true)
		}
		if len(v.liveOut(id)) == 0 && len(v.liveIn(id)) == 1 {
			walk(id, false)
		}
	}

	// Bubbles: local v with unique predecessor u and unique successor w;
	// if some sibling x shares exactly (u, w), the pair is a bubble and
	// the branch with lower read weight (tie: shorter contig, then higher
	// id) is removed. The rule is deterministic, so two partitions seeing
	// the same bubble record the same victim.
	loses := func(a, b int32) bool {
		if v.weight[a] != v.weight[b] {
			return v.weight[a] < v.weight[b]
		}
		if len(v.contig[a]) != len(v.contig[b]) {
			return len(v.contig[a]) < len(v.contig[b])
		}
		return a > b
	}
	for _, id := range sub.Local {
		ins, outs := v.liveIn(id), v.liveOut(id)
		if len(ins) != 1 || len(outs) != 1 {
			continue
		}
		u, w := ins[0].From, outs[0].To
		for _, sib := range v.liveOut(u) {
			x := sib.To
			if x == id {
				continue
			}
			xi, xo := v.liveIn(x), v.liveOut(x)
			if len(xi) != 1 || len(xo) != 1 || xo[0].To != w {
				continue
			}
			victim := id
			if loses(x, id) {
				victim = x
			}
			if !mark[victim] {
				mark[victim] = true
				rm.Nodes = append(rm.Nodes, victim)
			}
		}
	}
	slices.Sort(rm.Nodes)
	return rm
}

// view is the map-indexed form of a Subgraph the oracle scans walk.
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

func newView(sub *Subgraph) *view {
	v := &view{
		sub:     sub,
		part:    make(map[int32]int32, len(sub.Nodes)),
		weight:  make(map[int32]int64, len(sub.Nodes)),
		contig:  make(map[int32][]byte, len(sub.Nodes)),
		isLocal: make(map[int32]bool, len(sub.Local)),
		out:     make(map[int32][]Edge),
		in:      make(map[int32][]Edge),
	}
	for _, n := range sub.Nodes {
		v.part[n.ID] = n.Part
		v.weight[n.ID] = n.Weight
		v.contig[n.ID] = n.Contig
	}
	for _, id := range sub.Local {
		v.isLocal[id] = true
	}
	for _, e := range sub.Edges {
		v.out[e.From] = append(v.out[e.From], e)
		v.in[e.To] = append(v.in[e.To], e)
	}
	v.lout = liveSubsets(v.out)
	v.lin = liveSubsets(v.in)
	return v
}

// liveSubsets precomputes each node's non-containment edges. Lists
// without containment edges share the unfiltered slice.
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

func extractPathsMap(sub *Subgraph) [][]int32 {
	v := newView(sub)
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
