package partition

import (
	"math/rand"
	"testing"

	"focus/internal/graph"
)

// bruteBestSwap exhaustively finds the maximum-gain pair across the two
// queues' contents.
func bruteBestSwap(g *graph.Graph, sc *klScratch) (bestGain int64, found bool) {
	var as, bs []int
	for _, v := range sc.members {
		if sc.qa.Contains(v) {
			as = append(as, v)
		} else if sc.qb.Contains(v) {
			bs = append(bs, v)
		}
	}
	for _, a := range as {
		for _, b := range bs {
			gain := sc.d[a] + sc.d[b] - 2*g.EdgeWeight(a, b)
			if !found || gain > bestGain {
				found, bestGain = true, gain
			}
		}
	}
	return bestGain, found
}

// TestSelectSwapMatchesBruteForce verifies the lazy diagonal scan finds
// the globally best pair on random instances.
func TestSelectSwapMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		b := graph.NewBuilder(2 * n)
		for i := 0; i < 6*n; i++ {
			_ = b.AddEdge(rng.Intn(2*n), rng.Intn(2*n), int64(1+rng.Intn(9)))
		}
		g := b.Build()
		labels := make([]int32, 2*n)
		for v := n; v < 2*n; v++ {
			labels[v] = 1
		}
		sc := newKLScratch(2*n, 1)
		sc.initD(g, labels, allNodes(g), 0, 1)
		for _, v := range sc.members {
			if labels[v] == 0 {
				sc.qa.Push(v, sc.d[v])
			} else {
				sc.qb.Push(v, sc.d[v])
			}
		}
		wantGain, wantFound := bruteBestSwap(g, sc)
		a, bNode, gotGain, gotFound := selectSwap(g, sc)
		if gotFound != wantFound {
			t.Fatalf("seed %d: found=%v want %v", seed, gotFound, wantFound)
		}
		if !gotFound {
			continue
		}
		if gotGain != wantGain {
			t.Fatalf("seed %d: gain %d (pair %d,%d), brute force %d", seed, gotGain, a, bNode, wantGain)
		}
		// The queues are untouched (selectSwap only walks them).
		if sc.qa.Len()+sc.qb.Len() != len(sc.members) {
			t.Fatalf("seed %d: queues changed: %d+%d != %d", seed, sc.qa.Len(), sc.qb.Len(), len(sc.members))
		}
	}
}

// TestInitD checks E - I computation directly, serial vs sharded.
func TestInitD(t *testing.T) {
	// Triangle 0-1-2 with weights 5,7,3 plus a node 3 in another region.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 5)
	_ = b.AddEdge(1, 2, 7)
	_ = b.AddEdge(0, 2, 3)
	_ = b.AddEdge(2, 3, 100) // edge out of the region: ignored
	g := b.Build()
	labels := []int32{0, 0, 1, 9}
	sc := newKLScratch(4, 1)
	sc.initD(g, labels, allNodes(g), 0, 1)
	if len(sc.members) != 3 {
		t.Fatalf("d values for %d nodes", len(sc.members))
	}
	// Node 0: internal w(0,1)=5, external w(0,2)=3 -> D = -2.
	if sc.d[0] != -2 {
		t.Errorf("D[0] = %d, want -2", sc.d[0])
	}
	// Node 1: internal 5, external 7 -> 2.
	if sc.d[1] != 2 {
		t.Errorf("D[1] = %d, want 2", sc.d[1])
	}
	// Node 2: internal 0, external 7+3=10 (edge to 3 ignored) -> 10.
	if sc.d[2] != 10 {
		t.Errorf("D[2] = %d, want 10", sc.d[2])
	}
	if sc.in[3] {
		t.Error("node 3 marked in-universe")
	}
}

// TestKLPassEarlyStopBounded: with a tiny early-stop the pass terminates
// and never worsens the cut.
func TestKLPassEarlyStopBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	b := graph.NewBuilder(60)
	for i := 0; i < 300; i++ {
		_ = b.AddEdge(rng.Intn(60), rng.Intn(60), int64(1+rng.Intn(20)))
	}
	g := b.Build()
	labels := make([]int32, 60)
	for v := 30; v < 60; v++ {
		labels[v] = 1
	}
	before := EdgeCut(g, labels)
	opt := DefaultOptions(2)
	opt.EarlyStop = 1
	improved := klBisect(g, labels, allNodes(g), 0, 1, opt, newKLScratch(60, 1))
	after := EdgeCut(g, labels)
	if after != before-improved || improved < 0 {
		t.Fatalf("before=%d after=%d improved=%d", before, after, improved)
	}
}
