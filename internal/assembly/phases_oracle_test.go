package assembly

import (
	"reflect"
	"slices"
	"testing"

	"focus/internal/align"
)

// The serial map-walking scans below are the original implementations of
// the three cleaning phases. They are the reference the production CSR
// scans (phases_csr.go) are pinned to, byte for byte, by the equivalence
// property suite and FuzzPhaseEngines.

// checkScansMatchOracle requires TransitiveEdges, ContainmentScan and
// ErrorScan to return results deeply equal (including nil-vs-empty) to
// the map oracle's on sub, at each of the given worker counts.
func checkScansMatchOracle(t *testing.T, sub *Subgraph, cfg Config, workers ...int) {
	t.Helper()
	wantT := transitiveEdgesMap(sub, cfg)
	wantC := containmentScanMap(sub, cfg)
	wantE := errorScanMap(sub, cfg)
	for _, w := range workers {
		cfg.Workers = w
		if got := TransitiveEdges(sub, cfg); !reflect.DeepEqual(got, wantT) {
			t.Fatalf("workers %d: TransitiveEdges diverged\ncsr %v\nmap %v", w, got, wantT)
		}
		if got := ContainmentScan(sub, cfg); !reflect.DeepEqual(got, wantC) {
			t.Fatalf("workers %d: ContainmentScan diverged\ncsr %+v\nmap %+v", w, got, wantC)
		}
		if got := ErrorScan(sub, cfg); !reflect.DeepEqual(got, wantE) {
			t.Fatalf("workers %d: ErrorScan diverged\ncsr %+v\nmap %+v", w, got, wantE)
		}
	}
}

func transitiveEdgesMap(sub *Subgraph, cfg Config) []EdgePair {
	v := newView(sub, viewOut|viewLive)
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
	v := newView(sub, viewOut|viewIn)
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
	v := newView(sub, viewOut|viewIn|viewLive)
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
