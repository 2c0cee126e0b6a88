package partition

import (
	"slices"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/graph"
	"focus/internal/hybrid"
	"focus/internal/overlap"
	"focus/internal/pq"
	"focus/internal/preprocess"
	"focus/internal/simulate"
)

// selectSwapPop is the selectSwap the walkers replaced, kept as the oracle
// TestKLBisectMatchesPopOracle pins it to: it pops every entry the
// diagonal scan inspects from qa and qb and pushes them all back before
// returning.
func selectSwapPop(g *graph.Graph, sc *klScratch) (a, b int, gain int64, ok bool) {
	qa, qb := sc.qa, sc.qb
	listA, listB := sc.listA[:0], sc.listB[:0]
	ensure := func(q *pq.Dense, list *[]int, n int) bool {
		for len(*list) <= n {
			id, _, ok := q.Pop()
			if !ok {
				return false
			}
			*list = append(*list, id)
		}
		return true
	}
	defer func() {
		// Push drained entries back (the caller removes the selected pair
		// afterwards).
		for _, v := range listA {
			qa.Push(v, sc.d[v])
		}
		for _, v := range listB {
			qb.Push(v, sc.d[v])
		}
		sc.listA, sc.listB = listA, listB
	}()

	if !ensure(qa, &listA, 0) || !ensure(qb, &listB, 0) {
		return 0, 0, 0, false
	}
	h := sc.pairH[:0]
	seen := sc.seen
	clear(seen)
	seen[[2]int{0, 0}] = true
	pairPush(&h, pairItem{0, 0, sc.d[listA[0]] + sc.d[listB[0]]})
	bestGain := int64(0)
	found := false
	for len(h) > 0 {
		top := pairPop(&h)
		if found && top.key <= bestGain {
			break // no remaining pair can beat bestGain
		}
		va, vb := listA[top.i], listB[top.j]
		gnow := top.key - 2*g.EdgeWeight(va, vb)
		if !found || gnow > bestGain {
			found, bestGain, a, b = true, gnow, va, vb
		}
		// Expand the frontier.
		if ensure(qa, &listA, top.i+1) && !seen[[2]int{top.i + 1, top.j}] {
			seen[[2]int{top.i + 1, top.j}] = true
			pairPush(&h, pairItem{top.i + 1, top.j, sc.d[listA[top.i+1]] + sc.d[listB[top.j]]})
		}
		if ensure(qb, &listB, top.j+1) && !seen[[2]int{top.i, top.j + 1}] {
			seen[[2]int{top.i, top.j + 1}] = true
			pairPush(&h, pairItem{top.i, top.j + 1, sc.d[listA[top.i]] + sc.d[listB[top.j+1]]})
		}
	}
	sc.pairH = h
	return a, b, bestGain, found
}

// hybridSet runs a simulated community through the pipeline's front half
// with the assembler's defaults (reverse complements added, four overlap
// subsets, coarsening down to 128 nodes) and returns the hybrid graph set.
func hybridSet(tb testing.TB, spec simulate.CommunitySpec, id int, coverage float64) *graph.Set {
	tb.Helper()
	hyb, _ := pipelineSets(tb, spec, id, coverage)
	return hyb
}

// pipelineSets is hybridSet that also returns the multilevel set the
// hybrid set was built from.
func pipelineSets(tb testing.TB, spec simulate.CommunitySpec, id int, coverage float64) (hyb, multilevel *graph.Set) {
	tb.Helper()
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(id, coverage)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		tb.Fatal(err)
	}
	reads, _, err := preprocess.Run(rs.Reads, preprocess.Config{Window: 10, Step: 1, MinQuality: 12, MinLen: 40, AddReverse: true})
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := overlap.FindOverlaps(reads, 4, overlap.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	g0, err := overlap.BuildGraph(len(reads), recs)
	if err != nil {
		tb.Fatal(err)
	}
	copt := coarsen.DefaultOptions()
	copt.MinNodes = 128
	multilevel = coarsen.Multilevel(g0, copt)
	h, err := hybrid.Build(multilevel, reads, recs, hybrid.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return h.Set, multilevel
}

// genomeHybridSet is the hybrid set of the genome_ksweep-shaped input: one
// 80 kb genome at 30x.
func genomeHybridSet(tb testing.TB) *graph.Set {
	return hybridSet(tb, simulate.SingleGenome("g", 80000, 1), 1, 30)
}

// TestKLBisectMatchesPopOracle: PartitionSet with the walking selectSwap
// labels every level of a hybrid set exactly as with the pop-and-push-back
// oracle, at k = 2 ... 64.
func TestKLBisectMatchesPopOracle(t *testing.T) {
	spec, err := simulate.PaperDataSet(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name string
		set  *graph.Set
	}{
		{"D2 analogue", hybridSet(t, spec, 2, 8)},
		{"80 kb x 30", genomeHybridSet(t)},
	}
	run := func(set *graph.Set, opt Options, selector func(*graph.Graph, *klScratch) (int, int, int64, bool)) *Result {
		t.Helper()
		swapSelector = selector
		defer func() { swapSelector = selectSwap }()
		res, err := PartitionSet(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compared := 0
	for _, s := range sets {
		for k := 2; k <= 64; k *= 2 {
			if s.set.Coarsest().NumNodes() < k {
				if s.name == "80 kb x 30" {
					t.Fatalf("%s: coarsest level has %d nodes for k=%d", s.name, s.set.Coarsest().NumNodes(), k)
				}
				continue
			}
			opt := DefaultOptions(k)
			want := run(s.set, opt, selectSwapPop)
			got := run(s.set, opt, selectSwap)
			for i := range want.LevelLabels {
				if !slices.Equal(got.LevelLabels[i], want.LevelLabels[i]) {
					t.Fatalf("%s k=%d: level %d labels diverged from the pop oracle", s.name, k, i)
				}
			}
			compared++
		}
	}
	t.Logf("%d partitionings compared", compared)
}
