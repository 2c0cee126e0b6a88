package coarsen

import (
	"math/rand"
	"slices"
	"testing"

	"focus/internal/graph"
)

// pathGraph returns a path 0-1-2-…-n-1 with the given edge weights.
func pathGraph(weights []int64) *graph.Graph {
	b := graph.NewBuilder(len(weights) + 1)
	for i, w := range weights {
		_ = b.AddEdge(i, i+1, w)
	}
	return b.Build()
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(100)))
	}
	return b.Build()
}

// matchPar and contractPar are the production matching and contraction
// without a cancellation gate.
func matchPar(g *graph.Graph, seed int64, workers int) []int {
	return heavyEdgeMatchingPar(g, seed, workers, nil)
}

func contractPar(g *graph.Graph, match []int, workers int) (*graph.Graph, []int) {
	coarse, up, _ := contractParCtx(nil, g, match, workers)
	return coarse, up
}

func checkMatching(t *testing.T, g *graph.Graph, match []int) {
	t.Helper()
	for v, m := range match {
		if m == -1 {
			continue
		}
		if m < 0 || m >= g.NumNodes() {
			t.Fatalf("match[%d] = %d out of range", v, m)
		}
		if match[m] != v {
			t.Fatalf("matching not symmetric: match[%d]=%d, match[%d]=%d", v, m, m, match[m])
		}
		if m == v {
			t.Fatalf("node %d matched to itself", v)
		}
		if g.EdgeWeight(v, m) == 0 {
			t.Fatalf("matched pair %d-%d not adjacent", v, m)
		}
	}
}

func TestHeavyEdgeMatchingValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 60, 200)
		for _, w := range []int{1, 4} {
			checkMatching(t, g, matchPar(g, seed, w))
		}
	}
}

func TestHeavyEdgeMatchingPrefersHeavy(t *testing.T) {
	// Star: center 0 with edges to 1 (w=1), 2 (w=100), 3 (w=5). The heavy
	// edge 0-2 is the global maximum under every seed's edge order, so both
	// endpoints propose it in the first round and it is always claimed.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(0, 2, 100)
	_ = b.AddEdge(0, 3, 5)
	g := b.Build()
	for seed := int64(0); seed < 20; seed++ {
		match := matchPar(g, seed, 1)
		checkMatching(t, g, match)
		if match[0] != 2 {
			t.Fatalf("seed %d: center matched to %d, want 2", seed, match[0])
		}
	}
}

func TestContractPath(t *testing.T) {
	g := pathGraph([]int64{10, 1, 10, 1, 10}) // 6 nodes
	// Force matching 0-1, 2-3, 4-5 (the heavy edges).
	match := []int{1, 0, 3, 2, 5, 4}
	coarse, up := contractPar(g, match, 0)
	if coarse.NumNodes() != 3 {
		t.Fatalf("coarse nodes = %d", coarse.NumNodes())
	}
	// Weights: every merged node = 2.
	for v := 0; v < 3; v++ {
		if coarse.NodeWeight(v) != 2 {
			t.Errorf("node %d weight = %d", v, coarse.NodeWeight(v))
		}
	}
	// Surviving edges are the two light ones.
	if coarse.NumEdges() != 2 || coarse.TotalEdgeWeight() != 2 {
		t.Errorf("edges=%d weight=%d", coarse.NumEdges(), coarse.TotalEdgeWeight())
	}
	for v, p := range up {
		if p != v/2 {
			t.Errorf("up[%d] = %d", v, p)
		}
	}
}

func TestContractSumsParallelEdges(t *testing.T) {
	// Square 0-1-2-3-0; match 0-1 and 2-3; the two cross edges (1-2, 3-0)
	// become parallel and must merge with summed weight.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 9)
	_ = b.AddEdge(1, 2, 3)
	_ = b.AddEdge(2, 3, 9)
	_ = b.AddEdge(3, 0, 4)
	g := b.Build()
	coarse, _ := contractPar(g, []int{1, 0, 3, 2}, 0)
	if coarse.NumNodes() != 2 || coarse.NumEdges() != 1 {
		t.Fatalf("coarse: %d nodes %d edges", coarse.NumNodes(), coarse.NumEdges())
	}
	if coarse.EdgeWeight(0, 1) != 7 {
		t.Errorf("merged weight = %d, want 7", coarse.EdgeWeight(0, 1))
	}
}

func TestContractPreservesTotals(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed+100, 80, 300)
		match := matchPar(g, seed, 1)
		coarse, up := contractPar(g, match, 0)
		if coarse.TotalNodeWeight() != g.TotalNodeWeight() {
			t.Fatalf("node weight changed: %d -> %d", g.TotalNodeWeight(), coarse.TotalNodeWeight())
		}
		// Edge weight decreases exactly by the weight of matched edges.
		var matchedW int64
		for v, m := range match {
			if m > v {
				matchedW += g.EdgeWeight(v, m)
			}
		}
		if coarse.TotalEdgeWeight() != g.TotalEdgeWeight()-matchedW {
			t.Fatalf("edge weight %d, want %d", coarse.TotalEdgeWeight(), g.TotalEdgeWeight()-matchedW)
		}
		for v, p := range up {
			if p < 0 || p >= coarse.NumNodes() {
				t.Fatalf("up[%d] = %d", v, p)
			}
		}
	}
}

func TestMultilevelStructure(t *testing.T) {
	g := randomGraph(7, 500, 3000)
	set := Multilevel(g, DefaultOptions())
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(set.Levels) < 3 {
		t.Fatalf("only %d levels", len(set.Levels))
	}
	for i := 1; i < len(set.Levels); i++ {
		if set.Levels[i].NumNodes() >= set.Levels[i-1].NumNodes() {
			t.Errorf("level %d did not shrink: %d >= %d", i, set.Levels[i].NumNodes(), set.Levels[i-1].NumNodes())
		}
		if set.Levels[i].TotalNodeWeight() != g.TotalNodeWeight() {
			t.Errorf("level %d node weight %d", i, set.Levels[i].TotalNodeWeight())
		}
	}
	if len(set.Levels) > 10 {
		t.Errorf("MaxLevels exceeded: %d", len(set.Levels))
	}
}

func TestMultilevelStopsAtMinNodes(t *testing.T) {
	g := randomGraph(8, 200, 800)
	opt := DefaultOptions()
	opt.MinNodes = 100
	opt.MaxLevels = 50
	set := Multilevel(g, opt)
	// The last level may dip below MinNodes, but the one before must not.
	if len(set.Levels) >= 2 {
		prev := set.Levels[len(set.Levels)-2]
		if prev.NumNodes() <= opt.MinNodes {
			t.Errorf("coarsened past MinNodes: %d", prev.NumNodes())
		}
	}
}

func TestMultilevelSingleLevelForTinyGraph(t *testing.T) {
	g := pathGraph([]int64{1})
	set := Multilevel(g, DefaultOptions())
	if len(set.Levels) != 1 {
		t.Errorf("levels = %d, want 1", len(set.Levels))
	}
}

// TestClusters: composing the up-maps of a multilevel set partitions the
// level-0 nodes at every level, and each cluster's member weights sum to
// its coarse node's weight (level 0: singletons).
func TestClusters(t *testing.T) {
	g := randomGraph(9, 120, 500)
	set := Multilevel(g, DefaultOptions())
	assign := make([]int, g.NumNodes())
	for v := range assign {
		assign[v] = v
	}
	for level, lg := range set.Levels {
		if level > 0 {
			for v := range assign {
				assign[v] = set.Up[level-1][assign[v]]
			}
		}
		w := make([]int64, lg.NumNodes())
		for v, c := range assign {
			w[c] += g.NodeWeight(v)
		}
		for c := range w {
			if w[c] == 0 || w[c] != lg.NodeWeight(c) {
				t.Fatalf("level %d cluster %d weight %d, coarse node weight %d", level, c, w[c], lg.NodeWeight(c))
			}
		}
	}
}

// clustersAt returns the level-0 members of every node at the given level
// of set, in ascending order.
func clustersAt(set *graph.Set, level int) [][]int {
	assign := make([]int, set.Levels[0].NumNodes())
	for v := range assign {
		assign[v] = v
	}
	for i := 0; i < level; i++ {
		for v := range assign {
			assign[v] = set.Up[i][assign[v]]
		}
	}
	out := make([][]int, set.Levels[level].NumNodes())
	for v, c := range assign {
		out[c] = append(out[c], v)
	}
	return out
}

// TestClustersAt: every level's clusters cover the level-0 nodes once,
// level 0 is all singletons, and each cluster at level l+1 is exactly the
// union of the level-l clusters its up-map merges into it (clusters nest).
func TestClustersAt(t *testing.T) {
	g := randomGraph(10, 100, 400)
	set := Multilevel(g, DefaultOptions())
	for level := 0; level < len(set.Levels); level++ {
		clusters := clustersAt(set, level)
		if len(clusters) != set.Levels[level].NumNodes() {
			t.Fatalf("level %d: %d clusters", level, len(clusters))
		}
		total := 0
		for _, m := range clusters {
			total += len(m)
		}
		if total != g.NumNodes() {
			t.Fatalf("level %d: clusters cover %d nodes", level, total)
		}
	}
	for v, m := range clustersAt(set, 0) {
		if len(m) != 1 || m[0] != v {
			t.Fatalf("level-0 cluster %d = %v", v, m)
		}
	}
	for level := 0; level+1 < len(set.Levels); level++ {
		fine, coarse := clustersAt(set, level), clustersAt(set, level+1)
		size := make([]int, len(coarse))
		for c, members := range fine {
			up := set.Up[level][c]
			size[up] += len(members)
			for _, v := range members {
				if !slices.Contains(coarse[up], v) {
					t.Fatalf("level %d: node %d in cluster %d but not in its parent %d", level, v, c, up)
				}
			}
		}
		for c := range coarse {
			if size[c] != len(coarse[c]) {
				t.Fatalf("level %d: cluster %d has %d members, its children %d", level+1, c, len(coarse[c]), size[c])
			}
		}
	}
}
