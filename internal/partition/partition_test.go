package partition

import (
	"math/rand"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/graph"
)

// twoCliques builds two dense clusters of size n joined by one light
// bridge edge; the optimal bisection cuts only the bridge.
func twoCliques(n int) *graph.Graph {
	b := graph.NewBuilder(2 * n)
	for c := 0; c < 2; c++ {
		base := c * n
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				_ = b.AddEdge(base+i, base+j, 10)
			}
		}
	}
	_ = b.AddEdge(n-1, n, 1) // bridge
	return b.Build()
}

// ringOfClusters builds m dense clusters of size n arranged in a ring
// with light inter-cluster links.
func ringOfClusters(m, n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(m * n)
	for c := 0; c < m; c++ {
		base := c * n
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.6 {
					_ = b.AddEdge(base+i, base+j, int64(8+rng.Intn(5)))
				}
			}
		}
		next := ((c + 1) % m) * n
		_ = b.AddEdge(base+rng.Intn(n), next+rng.Intn(n), 1)
	}
	return b.Build()
}

func singleLevelSet(g *graph.Graph) *graph.Set {
	return &graph.Set{Levels: []*graph.Graph{g}}
}

func TestGreedyGrowBalances(t *testing.T) {
	g := ringOfClusters(8, 10, 1)
	labels := make([]int32, g.NumNodes())
	rng := rand.New(rand.NewSource(2))
	greedyGrow(g, labels, 0, 1, DefaultOptions(2), rng, newKLScratch(g.NumNodes(), 1))
	w := PartWeights(g, labels, 2)
	if w[0] == 0 || w[1] == 0 {
		t.Fatalf("empty side: %v", w)
	}
	total := w[0] + w[1]
	// Each side within half +- the heaviest node (weight 1 here) plus
	// slack from the alternating rule; generous bound: 35%-65%.
	if float64(w[0]) < 0.35*float64(total) || float64(w[0]) > 0.65*float64(total) {
		t.Errorf("imbalanced grow: %v", w)
	}
}

func TestGreedyGrowTinyRegions(t *testing.T) {
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	// Region with one node: no-op.
	labels := []int32{0, 5, 5}
	greedyGrow(g, labels, 0, 1, DefaultOptions(2), rand.New(rand.NewSource(1)), newKLScratch(g.NumNodes(), 1))
	if labels[0] != 0 {
		t.Errorf("singleton region changed: %v", labels)
	}
	// Region with two nodes: must split.
	labels = []int32{0, 0, 5}
	greedyGrow(g, labels, 0, 1, DefaultOptions(2), rand.New(rand.NewSource(1)), newKLScratch(g.NumNodes(), 1))
	if labels[0] == labels[1] {
		t.Errorf("two-node region not split: %v", labels)
	}
}

func TestKLBisectFindsBridge(t *testing.T) {
	g := twoCliques(8)
	// Deliberately bad start: split across the cliques.
	labels := make([]int32, g.NumNodes())
	for v := range labels {
		if v%2 == 0 {
			labels[v] = 1
		}
	}
	before := EdgeCut(g, labels)
	improved := klBisect(g, labels, 0, 1, DefaultOptions(2), newKLScratch(g.NumNodes(), 1))
	after := EdgeCut(g, labels)
	if after != before-improved {
		t.Fatalf("improvement accounting: before=%d after=%d claimed=%d", before, after, improved)
	}
	if after > before {
		t.Fatalf("KL worsened the cut: %d -> %d", before, after)
	}
	// Optimal cut is the single bridge edge (weight 1). KL from an
	// alternating start should reach it (the cliques are dense).
	if after != 1 {
		t.Errorf("cut = %d, want 1", after)
	}
	// KL swaps preserve side sizes.
	w := PartWeights(g, labels, 2)
	if w[0] != w[1] {
		t.Errorf("sides changed size: %v", w)
	}
}

func TestKLBisectNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := ringOfClusters(6, 8, seed)
		labels := make([]int32, g.NumNodes())
		rng := rand.New(rand.NewSource(seed))
		for v := range labels {
			labels[v] = int32(rng.Intn(2))
		}
		// Both sides must be non-empty for KL.
		labels[0], labels[1] = 0, 1
		before := EdgeCut(g, labels)
		improved := klBisect(g, labels, 0, 1, DefaultOptions(2), newKLScratch(g.NumNodes(), 1))
		after := EdgeCut(g, labels)
		if improved < 0 {
			t.Fatalf("negative improvement %d", improved)
		}
		if after != before-improved {
			t.Fatalf("seed %d: accounting %d -> %d (claimed %d)", seed, before, after, improved)
		}
	}
}

func TestKLBisectIgnoresOtherRegions(t *testing.T) {
	// Nodes labeled 7 are another region; KL on {0,1} must not move them.
	g := ringOfClusters(4, 6, 3)
	labels := make([]int32, g.NumNodes())
	for v := range labels {
		switch {
		case v < 6:
			labels[v] = 0
		case v < 12:
			labels[v] = 1
		default:
			labels[v] = 7
		}
	}
	klBisect(g, labels, 0, 1, DefaultOptions(2), newKLScratch(g.NumNodes(), 1))
	for v := 12; v < g.NumNodes(); v++ {
		if labels[v] != 7 {
			t.Fatalf("foreign node %d relabeled to %d", v, labels[v])
		}
	}
}

func TestKWayRefineImproves(t *testing.T) {
	g := ringOfClusters(8, 8, 4)
	k := 4
	labels := make([]int32, g.NumNodes())
	rng := rand.New(rand.NewSource(5))
	for v := range labels {
		labels[v] = int32(rng.Intn(k))
	}
	before := EdgeCut(g, labels)
	improved := kWayRefine(g, labels, k, DefaultOptions(k), 1)
	after := EdgeCut(g, labels)
	if after != before-improved {
		t.Fatalf("accounting: %d -> %d claimed %d", before, after, improved)
	}
	if after > before {
		t.Fatalf("k-way refinement worsened cut")
	}
	if improved == 0 {
		t.Error("k-way refinement found nothing on a random start")
	}
	if err := Validate(g, labels, k); err != nil {
		t.Fatal(err)
	}
}

func TestKWayRefineRespectsBalance(t *testing.T) {
	g := ringOfClusters(8, 8, 6)
	k := 4
	labels := make([]int32, g.NumNodes())
	for v := range labels {
		labels[v] = int32(v / (g.NumNodes() / k))
		if labels[v] >= int32(k) {
			labels[v] = int32(k - 1)
		}
	}
	kWayRefine(g, labels, k, DefaultOptions(k), 1)
	w := PartWeights(g, labels, k)
	var mn, mx int64 = w[0], w[0]
	for _, x := range w {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	if mn == 0 {
		t.Fatalf("refinement emptied a partition: %v", w)
	}
	// The 1.03 rule is applied per move against the source partition; the
	// end state stays near-balanced when the start is balanced.
	if float64(mx) > 1.6*float64(mn) {
		t.Errorf("weights drifted: %v", w)
	}
}

func TestPartitionSetBasic(t *testing.T) {
	g := ringOfClusters(16, 12, 7)
	set := coarsen.Multilevel(g, coarsen.DefaultOptions())
	for _, k := range []int{1, 2, 4, 8} {
		opt := DefaultOptions(k)
		res, err := PartitionSet(set, opt)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i, labels := range res.LevelLabels {
			if err := Validate(set.Levels[i], labels, k); err != nil {
				t.Fatalf("k=%d level %d: %v", k, i, err)
			}
		}
		// Balance at the finest level. The graph is built from dense
		// clusters, so balance is bounded by cluster granularity; check
		// against the average rather than min/max ratio.
		w := PartWeights(g, res.Labels(), k)
		avg := float64(g.TotalNodeWeight()) / float64(k)
		for p, x := range w {
			if float64(x) > 2.0*avg || float64(x) < avg/3.0 {
				t.Errorf("k=%d: part %d weight %d far from average %.1f (%v)", k, p, x, avg, w)
			}
		}
	}
}

func TestPartitionSetCutQuality(t *testing.T) {
	// Ring of 8 clusters, k=8: a good partitioner puts one cluster per
	// part, cutting only the 8 light ring edges.
	g := ringOfClusters(8, 12, 8)
	set := coarsen.Multilevel(g, coarsen.DefaultOptions())
	res, err := PartitionSet(set, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	cut := EdgeCut(g, res.Labels())
	// The 8 ring edges have weight 1 each; allow some slack.
	if cut > 30 {
		t.Errorf("cut = %d, want close to 8", cut)
	}
}

func TestPartitionSetErrors(t *testing.T) {
	g := ringOfClusters(2, 4, 9)
	set := singleLevelSet(g)
	if _, err := PartitionSet(set, DefaultOptions(3)); err == nil {
		t.Error("k=3 accepted")
	}
	if _, err := PartitionSet(set, DefaultOptions(0)); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PartitionSet(set, DefaultOptions(16)); err == nil {
		t.Error("k larger than coarsest level accepted")
	}
	if _, err := PartitionSet(&graph.Set{}, DefaultOptions(2)); err == nil {
		t.Error("empty set accepted")
	}
}

func TestPartitionSetDeterministic(t *testing.T) {
	g := ringOfClusters(8, 10, 10)
	set := coarsen.Multilevel(g, coarsen.DefaultOptions())
	opt := DefaultOptions(4)
	opt.Procs = 3
	a, err := PartitionSet(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionSet(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.LevelLabels {
		for v := range a.LevelLabels[i] {
			if a.LevelLabels[i][v] != b.LevelLabels[i][v] {
				t.Fatalf("nondeterministic at level %d node %d", i, v)
			}
		}
	}
}

func TestMapLabels(t *testing.T) {
	labels := []int32{3, 1, 2}
	mapOf := []int{0, 0, 1, 2, 2}
	got := MapLabels(labels, mapOf)
	want := []int32{3, 3, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MapLabels = %v, want %v", got, want)
		}
	}
}

func TestEdgeCut(t *testing.T) {
	g := twoCliques(3)
	labels := []int32{0, 0, 0, 1, 1, 1}
	if cut := EdgeCut(g, labels); cut != 1 {
		t.Errorf("cut = %d, want 1 (bridge only)", cut)
	}
	all := []int32{0, 0, 0, 0, 0, 0}
	if cut := EdgeCut(g, all); cut != 0 {
		t.Errorf("cut = %d, want 0", cut)
	}
}

func TestValidate(t *testing.T) {
	g := twoCliques(2)
	if err := Validate(g, []int32{0, 0, 1, 1}, 2); err != nil {
		t.Error(err)
	}
	if err := Validate(g, []int32{0, 0, 0, 0}, 2); err == nil {
		t.Error("empty part accepted")
	}
	if err := Validate(g, []int32{0, 0, 5, 0}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
	if err := Validate(g, []int32{0}, 2); err == nil {
		t.Error("short labels accepted")
	}
}

func TestSkipKWayAblation(t *testing.T) {
	g := ringOfClusters(8, 10, 11)
	set := coarsen.Multilevel(g, coarsen.DefaultOptions())
	opt := DefaultOptions(4)
	opt.SkipKWay = true
	res, err := PartitionSet(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res.Labels(), 4); err != nil {
		t.Fatal(err)
	}
	optFull := DefaultOptions(4)
	full, err := PartitionSet(set, optFull)
	if err != nil {
		t.Fatal(err)
	}
	if EdgeCut(g, full.Labels()) > EdgeCut(g, res.Labels()) {
		t.Errorf("k-way refinement worsened the final cut: %d vs %d",
			EdgeCut(g, full.Labels()), EdgeCut(g, res.Labels()))
	}
}
