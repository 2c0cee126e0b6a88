package graph

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	for _, e := range []struct {
		u, v int
		w    int64
	}{{0, 1, 5}, {1, 2, 7}, {0, 2, 3}} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.TotalEdgeWeight() != 15 {
		t.Errorf("TotalEdgeWeight = %d", g.TotalEdgeWeight())
	}
	if g.TotalNodeWeight() != 3 {
		t.Errorf("TotalNodeWeight = %d", g.TotalNodeWeight())
	}
	if g.EdgeWeight(0, 1) != 5 || g.EdgeWeight(1, 0) != 5 {
		t.Errorf("EdgeWeight(0,1) = %d", g.EdgeWeight(0, 1))
	}
	if g.EdgeWeight(0, 0) != 0 {
		t.Errorf("self edge weight = %d", g.EdgeWeight(0, 0))
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", g.Degree(1))
	}
}

func TestParallelEdgesMerge(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 1, 3)
	_ = b.AddEdge(1, 0, 4) // same undirected edge
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.EdgeWeight(0, 1) != 7 {
		t.Errorf("merged weight = %d", g.EdgeWeight(0, 1))
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 0, 9)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 || g.TotalEdgeWeight() != 1 {
		t.Errorf("edges=%d weight=%d", g.NumEdges(), g.TotalEdgeWeight())
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 2, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 0, 1); err == nil {
		t.Error("negative node accepted")
	}
}

func TestNodeWeights(t *testing.T) {
	b := NewBuilder(3)
	b.nodeWeight[1] = 10
	g := b.Build()
	if g.NodeWeight(0) != 1 || g.NodeWeight(1) != 10 {
		t.Errorf("weights = %d, %d", g.NodeWeight(0), g.NodeWeight(1))
	}
	if g.TotalNodeWeight() != 12 {
		t.Errorf("total = %d", g.TotalNodeWeight())
	}
}

func TestAdjSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	b := NewBuilder(50)
	for i := 0; i < 300; i++ {
		_ = b.AddEdge(rng.Intn(50), rng.Intn(50), int64(1+rng.Intn(9)))
	}
	g := b.Build()
	for v := 0; v < g.NumNodes(); v++ {
		arcs := g.Adj(v)
		for i := 1; i < len(arcs); i++ {
			if arcs[i-1].To >= arcs[i].To {
				t.Fatalf("adj of %d not strictly sorted: %v", v, arcs)
			}
		}
		for _, a := range arcs {
			if g.EdgeWeight(int(a.To), v) != int64(a.W) {
				t.Fatalf("asymmetric edge %d-%d", v, a.To)
			}
		}
	}
}

func TestSetValidateAndProject(t *testing.T) {
	// Level 0: 4 nodes; level 1: 2 nodes (0,1 -> 0; 2,3 -> 1).
	b0 := NewBuilder(4)
	_ = b0.AddEdge(0, 1, 1)
	_ = b0.AddEdge(2, 3, 1)
	_ = b0.AddEdge(1, 2, 1)
	g0 := b0.Build()
	b1 := NewBuilder(2)
	_ = b1.AddEdge(0, 1, 1)
	g1 := b1.Build()
	s := &Set{Levels: []*Graph{g0, g1}, Up: [][]int{{0, 0, 1, 1}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Coarsest() != g1 {
		t.Error("Coarsest wrong")
	}
}

func TestSetValidateErrors(t *testing.T) {
	if err := (&Set{}).Validate(); err == nil {
		t.Error("empty set validated")
	}
	g := NewBuilder(2).Build()
	s := &Set{Levels: []*Graph{g, g}, Up: nil}
	if err := s.Validate(); err == nil {
		t.Error("missing up-map validated")
	}
	s = &Set{Levels: []*Graph{g, g}, Up: [][]int{{0}}}
	if err := s.Validate(); err == nil {
		t.Error("short up-map validated")
	}
	s = &Set{Levels: []*Graph{g, g}, Up: [][]int{{0, 5}}}
	if err := s.Validate(); err == nil {
		t.Error("invalid parent validated")
	}
}

// TestArcLayout pins the arc at 8 bytes: G0, every coarse level and the
// hybrid set keep their adjacency as arcs for the whole run.
func TestArcLayout(t *testing.T) {
	if size := unsafe.Sizeof(Arc{}); size != 8 {
		t.Fatalf("Arc is %d bytes, want 8", size)
	}
}

// checkArcSum fails unless g's stored arc weights sum to twice its
// TotalEdgeWeight.
func checkArcSum(t *testing.T, g *Graph) {
	t.Helper()
	var sum int64
	for v := 0; v < g.NumNodes(); v++ {
		for _, a := range g.Adj(v) {
			sum += int64(a.W)
		}
	}
	if sum != 2*g.TotalEdgeWeight() {
		t.Fatalf("arc weights sum to %d, TotalEdgeWeight is %d", sum, g.TotalEdgeWeight())
	}
}

// TestBuilderSaturates: parallel edges whose weights sum past
// math.MaxInt32 store math.MaxInt32, and TotalEdgeWeight counts the stored
// weight.
func TestBuilderSaturates(t *testing.T) {
	b := NewBuilder(3)
	_ = b.AddEdge(0, 1, math.MaxInt32-5)
	_ = b.AddEdge(1, 0, 10)
	_ = b.AddEdge(1, 2, 7)
	g := b.Build()
	if w := g.EdgeWeight(1, 0); w != math.MaxInt32 {
		t.Fatalf("merged weight %d, want %d", w, math.MaxInt32)
	}
	if g.EdgeWeight(1, 2) != 7 || g.TotalEdgeWeight() != math.MaxInt32+7 {
		t.Fatalf("weight(1,2) %d, total %d", g.EdgeWeight(1, 2), g.TotalEdgeWeight())
	}
	checkArcSum(t, g)
}

// TestContractSaturates: two edges that each fit in an arc but merge past
// math.MaxInt32 under contraction store math.MaxInt32, at widths 1 and 2.
func TestContractSaturates(t *testing.T) {
	b := NewBuilder(5)
	_ = b.AddEdge(0, 2, math.MaxInt32-1)
	_ = b.AddEdge(1, 3, math.MaxInt32-1)
	_ = b.AddEdge(3, 4, 9)
	g := b.Build()
	checkArcSum(t, g)
	group := []int{0, 0, 1, 1, 2}
	for _, w := range []int{1, 2} {
		c, err := ContractCtx(nil, g, group, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.EdgeWeight(0, 1); got != math.MaxInt32 {
			t.Fatalf("width %d: merged weight %d, want %d", w, got, math.MaxInt32)
		}
		if c.EdgeWeight(1, 2) != 9 || c.TotalEdgeWeight() != math.MaxInt32+9 {
			t.Fatalf("width %d: weight(1,2) %d, total %d", w, c.EdgeWeight(1, 2), c.TotalEdgeWeight())
		}
		checkArcSum(t, c)
	}
}
