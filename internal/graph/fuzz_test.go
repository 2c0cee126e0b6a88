package graph

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzContract checks the CSR writer and ContractWithWeightsCtx against a
// map oracle under the saturation rule: a stored weight is the int64 sum
// of its parallel copies (or, after contraction, of the merged stored
// weights) saturated at math.MaxInt32. edges holds 6 bytes per edge: the
// two ends mod n, then a flag byte whose top bit asks for a small weight
// (the next byte plus one) and otherwise a weight up to math.MaxInt32
// from the last bytes, so parallel copies often sum past the bound.
// grouping maps node v to grouping[v mod len] mod numGroups.
func FuzzContract(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0, 1, 2}, []byte{
		0, 1, 0x7f, 0xff, 0xff, 0xf0, 1, 0, 0x00, 0x00, 0x00, 0x20, 1, 2, 0x80, 6, 0, 0,
	})
	f.Add(uint8(8), uint8(3), []byte{5, 9, 0, 2}, []byte{
		0, 2, 0x7f, 0xff, 0xff, 0xfe, 1, 3, 0x7f, 0xff, 0xff, 0xfe, 4, 4, 0x80, 1, 0, 0,
		7, 6, 0x80, 200, 0, 0, 6, 7, 0x12, 0x34, 0x56, 0x78,
	})
	f.Add(uint8(0), uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, nodes, groups uint8, grouping, edges []byte) {
		n := 2 + int(nodes)%40
		numGroups := 1 + int(groups)%n
		b := NewBuilder(n)
		fine := map[[2]int32]int64{}
		for ; len(edges) >= 6; edges = edges[6:] {
			u, v := int32(int(edges[0])%n), int32(int(edges[1])%n)
			w := int64(binary.BigEndian.Uint32(edges[2:6]) & math.MaxInt32)
			if edges[2]&0x80 != 0 {
				w = int64(edges[3]) + 1
			}
			if err := b.AddEdge(int(u), int(v), w); err != nil {
				t.Fatal(err)
			}
			if u != v {
				fine[[2]int32{min(u, v), max(u, v)}] += w
			}
		}
		g := b.Build()
		checkOracle(t, "build", g, fine)

		group := make([]int, n)
		nw := make([]int64, numGroups)
		for v := range group {
			if len(grouping) > 0 {
				group[v] = int(grouping[v%len(grouping)]) % numGroups
			}
			nw[group[v]] += g.NodeWeight(v)
		}
		coarse := map[[2]int32]int64{}
		for k, sum := range fine {
			cu, cv := int32(group[k[0]]), int32(group[k[1]])
			if cu != cv {
				coarse[[2]int32{min(cu, cv), max(cu, cv)}] += int64(saturate(sum))
			}
		}
		for _, w := range []int{1, 2} {
			c, err := ContractWithWeightsCtx(nil, g, group, nw, w)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "contract", c, coarse)
			for v, x := range nw {
				if c.NodeWeight(v) != x {
					t.Fatalf("width %d: coarse node %d weighs %d, want %d", w, v, c.NodeWeight(v), x)
				}
			}
		}
	})
}

// saturate is the oracle's statement of the stored-weight rule.
func saturate(sum int64) int32 { return int32(min(sum, math.MaxInt32)) }

// checkOracle fails unless g holds exactly the oracle's edges, each at its
// saturated sum, with every Adj strictly sorted, no self-loop and the
// arc weights summing to 2·TotalEdgeWeight.
func checkOracle(t *testing.T, stage string, g *Graph, want map[[2]int32]int64) {
	t.Helper()
	var total int64
	for _, sum := range want {
		total += int64(saturate(sum))
	}
	if g.NumEdges() != len(want) || g.TotalEdgeWeight() != total {
		t.Fatalf("%s: %d edges weighing %d, oracle %d weighing %d", stage, g.NumEdges(), g.TotalEdgeWeight(), len(want), total)
	}
	arcs := 0
	for v := 0; v < g.NumNodes(); v++ {
		adj := g.Adj(v)
		arcs += len(adj)
		for i, a := range adj {
			if int(a.To) == v || (i > 0 && adj[i-1].To >= a.To) {
				t.Fatalf("%s: adjacency of %d not strictly sorted or holds a self-loop: %v", stage, v, adj)
			}
			key := [2]int32{min(int32(v), a.To), max(int32(v), a.To)}
			sum, ok := want[key]
			if !ok || a.W != saturate(sum) {
				t.Fatalf("%s: arc %d->%d weighs %d, oracle %d (present %v)", stage, v, a.To, a.W, saturate(sum), ok)
			}
		}
	}
	if arcs != 2*len(want) {
		t.Fatalf("%s: %d arcs for %d edges", stage, arcs, len(want))
	}
	checkArcSum(t, g)
}
