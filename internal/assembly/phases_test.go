package assembly

import (
	"bytes"
	"testing"
)

// chainSub builds a subgraph: nodes 0..n-1 in a chain with contigs of
// length 100 overlapping by 40 (diag 60), all in partition 0 and local.
func chainSub(n int) *Subgraph {
	sub := &Subgraph{Part: 0}
	for i := 0; i < n; i++ {
		sub.Local = append(sub.Local, int32(i))
		sub.Nodes = append(sub.Nodes, WireNode{ID: int32(i), Part: 0, Weight: 5, Contig: bytes.Repeat([]byte("A"), 100)})
		if i > 0 {
			sub.Edges = append(sub.Edges, Edge{From: int32(i - 1), To: int32(i), Diag: 60, Len: 40, Ident: 1})
		}
	}
	return sub
}

func TestTransitiveEdges(t *testing.T) {
	sub := chainSub(3)
	// Add the transitive edge 0->2 (diag 120 = 60+60).
	sub.Edges = append(sub.Edges, Edge{From: 0, To: 2, Diag: 120, Len: 10, Ident: 1})
	got := transitiveEdges(sub, DefaultConfig(), 0)
	if len(got) != 1 || got[0] != (EdgePair{From: 0, To: 2}) {
		t.Errorf("transitive edges = %v", got)
	}
}

func TestTransitiveEdgesRespectsTolerance(t *testing.T) {
	sub := chainSub(3)
	// Edge 0->2 with diag far from 120: not transitive.
	sub.Edges = append(sub.Edges, Edge{From: 0, To: 2, Diag: 90, Len: 10, Ident: 1})
	cfg := DefaultConfig()
	cfg.DiagTolerance = 5
	if got := transitiveEdges(sub, cfg, 0); len(got) != 0 {
		t.Errorf("transitive edges = %v, want none", got)
	}
}

func TestTransitiveEdgesNoFalsePositiveOnPlainChain(t *testing.T) {
	if got := transitiveEdges(chainSub(5), DefaultConfig(), 0); len(got) != 0 {
		t.Errorf("chain reported transitive edges: %v", got)
	}
}

func TestContainmentScan(t *testing.T) {
	genomeLike := bytes.Repeat([]byte("ACGT"), 60) // 240 bp
	long := genomeLike
	short := genomeLike[50:150]
	sub := &Subgraph{
		Part:  0,
		Local: []int32{0, 1},
		Nodes: []WireNode{
			{ID: 0, Part: 0, Weight: 10, Contig: long},
			{ID: 1, Part: 0, Weight: 2, Contig: short},
		},
		Edges: []Edge{{From: 0, To: 1, Diag: 50, Len: 100, Ident: 1, Contain: true}},
	}
	rm := containmentScan(sub, DefaultConfig(), 0)
	if len(rm.Nodes) != 1 || rm.Nodes[0] != 1 {
		t.Errorf("contained nodes = %v, want [1]", rm.Nodes)
	}
	if len(rm.Edges) != 0 {
		t.Errorf("false edges = %v", rm.Edges)
	}
}

func TestContainmentScanFalseEdge(t *testing.T) {
	// Two unrelated contigs with a bogus edge claiming a 30bp overlap:
	// below the 50bp minimum, the edge must be recorded for removal.
	a := bytes.Repeat([]byte("ACGT"), 30)
	b := bytes.Repeat([]byte("TTGA"), 30)
	sub := &Subgraph{
		Part:  0,
		Local: []int32{0, 1},
		Nodes: []WireNode{
			{ID: 0, Part: 0, Contig: a},
			{ID: 1, Part: 0, Contig: b},
		},
		Edges: []Edge{{From: 0, To: 1, Diag: 90, Len: 30, Ident: 1}},
	}
	rm := containmentScan(sub, DefaultConfig(), 0)
	if len(rm.Edges) != 1 || rm.Edges[0] != (EdgePair{From: 0, To: 1}) {
		t.Errorf("false edges = %v", rm.Edges)
	}
	if len(rm.Nodes) != 0 {
		t.Errorf("nodes = %v", rm.Nodes)
	}
}

func TestErrorScanDeadEnd(t *testing.T) {
	// Main chain 0->1->2->3 plus a short tip 4->1 (4 has no in-edges and
	// a single out into a node with other ins).
	sub := chainSub(4)
	sub.Local = append(sub.Local, 4)
	sub.Nodes = append(sub.Nodes, WireNode{ID: 4, Part: 0, Weight: 1, Contig: bytes.Repeat([]byte("C"), 80)})
	// The tip's attaching edge (len 30) is lighter than the main chain's
	// edge into node 1 (len 40), so the tip is the minority branch.
	sub.Edges = append(sub.Edges, Edge{From: 4, To: 1, Diag: 50, Len: 30, Ident: 1})
	cfg := DefaultConfig()
	rm := errorScan(sub, cfg, 0)
	if len(rm.Nodes) != 1 || rm.Nodes[0] != 4 {
		t.Errorf("dead ends = %v, want [4]", rm.Nodes)
	}
}

func TestErrorScanKeepsLongDeadEnd(t *testing.T) {
	sub := chainSub(4)
	sub.Local = append(sub.Local, 4)
	// Tip longer than MinTipLen: kept.
	sub.Nodes = append(sub.Nodes, WireNode{ID: 4, Part: 0, Weight: 1, Contig: bytes.Repeat([]byte("C"), 2000)})
	sub.Edges = append(sub.Edges, Edge{From: 4, To: 1, Diag: 1970, Len: 30, Ident: 1})
	rm := errorScan(sub, DefaultConfig(), 0)
	if len(rm.Nodes) != 0 {
		t.Errorf("long dead end removed: %v", rm.Nodes)
	}
}

func TestErrorScanBubble(t *testing.T) {
	// 0 -> {1, 4} -> 2 -> 3 : 1 and 4 form a bubble; 4 has lower weight.
	sub := chainSub(4)
	sub.Local = append(sub.Local, 4)
	sub.Nodes = append(sub.Nodes, WireNode{ID: 4, Part: 0, Weight: 1, Contig: bytes.Repeat([]byte("G"), 100)})
	sub.Edges = append(sub.Edges,
		Edge{From: 0, To: 4, Diag: 60, Len: 40, Ident: 1},
		Edge{From: 4, To: 2, Diag: 60, Len: 40, Ident: 1},
	)
	rm := errorScan(sub, DefaultConfig(), 0)
	if len(rm.Nodes) != 1 || rm.Nodes[0] != 4 {
		t.Errorf("bubble removal = %v, want [4]", rm.Nodes)
	}
}

func TestErrorScanBubbleDeterministicVictim(t *testing.T) {
	// Equal weights and contig lengths: the higher id loses.
	sub := chainSub(4)
	sub.Local = append(sub.Local, 4)
	sub.Nodes = append(sub.Nodes, WireNode{ID: 4, Part: 0, Weight: 5, Contig: bytes.Repeat([]byte("G"), 100)})
	sub.Edges = append(sub.Edges,
		Edge{From: 0, To: 4, Diag: 60, Len: 40, Ident: 1},
		Edge{From: 4, To: 2, Diag: 60, Len: 40, Ident: 1},
	)
	rm := errorScan(sub, DefaultConfig(), 0)
	if len(rm.Nodes) != 1 || rm.Nodes[0] != 4 {
		t.Errorf("victim = %v, want [4] (higher id)", rm.Nodes)
	}
}

func TestExtractPathsChain(t *testing.T) {
	paths := ExtractPaths(chainSub(5), DefaultConfig())
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	want := []int32{0, 1, 2, 3, 4}
	for i, v := range want {
		if paths[0][i] != v {
			t.Fatalf("path = %v, want %v", paths[0], want)
		}
	}
}

func TestExtractPathsStopsAtPartitionBoundary(t *testing.T) {
	sub := chainSub(5)
	// Nodes 3,4 belong to another partition: not local, different part.
	sub.Local = sub.Local[:3]
	sub.Nodes[3].Part = 1
	sub.Nodes[4].Part = 1
	paths := ExtractPaths(sub, DefaultConfig())
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestExtractPathsStopsAtBranch(t *testing.T) {
	sub := chainSub(4)
	// Extra edge 0->2 makes node 2 have two in-edges: the path must not
	// cross it during right-extension from 1... specifically 1->2 is not
	// z's only in-edge.
	sub.Edges = append(sub.Edges, Edge{From: 0, To: 2, Diag: 120, Len: 20, Ident: 1})
	paths := ExtractPaths(sub, DefaultConfig())
	// Node 0 now branches (two out-edges) and node 2 has two in-edges:
	// expect {0}, {1}, {2,3}.
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	total := 0
	for _, p := range paths {
		total += len(p)
	}
	if total != 4 {
		t.Fatalf("paths do not cover all nodes: %v", paths)
	}
}

func TestExtractPathsCycleTerminates(t *testing.T) {
	sub := chainSub(4)
	sub.Edges = append(sub.Edges, Edge{From: 3, To: 0, Diag: 60, Len: 40, Ident: 1})
	paths := ExtractPaths(sub, DefaultConfig())
	total := 0
	for _, p := range paths {
		total += len(p)
	}
	if total != 4 {
		t.Fatalf("cycle paths cover %d nodes: %v", total, paths)
	}
}

func TestComputeStats(t *testing.T) {
	mk := func(n int) []byte { return bytes.Repeat([]byte("A"), n) }
	st := ComputeStats([][]byte{mk(100), mk(200), mk(300), mk(400)})
	if st.NumContigs != 4 || st.TotalBases != 1000 || st.MaxContig != 400 {
		t.Errorf("stats = %+v", st)
	}
	// Sorted desc: 400 (cum 400) < 500, then 300 (cum 700) >= 500.
	if st.N50 != 300 {
		t.Errorf("N50 = %d, want 300", st.N50)
	}
	if st.MeanLen != 250 {
		t.Errorf("MeanLen = %v", st.MeanLen)
	}
	empty := ComputeStats(nil)
	if empty.NumContigs != 0 || empty.N50 != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestDiGraphMutations(t *testing.T) {
	g := &DiGraph{
		Contigs: [][]byte{[]byte("AAAA"), []byte("CCCC"), []byte("GGGG")},
		Weight:  []int64{1, 1, 1},
		Removed: make([]bool, 3),
		Out:     make([][]Edge, 3),
		In:      make([][]Edge, 3),
	}
	add := func(f, to int32) {
		e := Edge{From: f, To: to, Diag: 2, Len: 2, Ident: 1}
		g.Out[f] = append(g.Out[f], e)
		g.In[to] = append(g.In[to], e)
	}
	add(0, 1)
	add(1, 2)
	add(0, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || numLive(g) != 3 {
		t.Fatalf("edges=%d live=%d", g.NumEdges(), numLive(g))
	}
	if _, ok := g.OutEdge(0, 1); !ok {
		t.Fatal("OutEdge(0,1) missing")
	}
	g.RemoveEdge(0, 2)
	if _, ok := g.OutEdge(0, 2); ok {
		t.Fatal("edge 0->2 still present")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(1)
	if numLive(g) != 2 || g.NumEdges() != 0 {
		t.Fatalf("after node removal: live=%d edges=%d", numLive(g), g.NumEdges())
	}
	g.RemoveNode(1) // idempotent
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// numLive counts g's non-removed nodes.
func numLive(g *DiGraph) int {
	n := 0
	for _, r := range g.Removed {
		if !r {
			n++
		}
	}
	return n
}
