package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomBuilder fills a builder with a random weighted multigraph
// (duplicate edges and self-loops included, to exercise merge/drop paths).
func randomBuilder(n, edges int, rng *rand.Rand) *Builder {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.nodeWeight[v] = int64(1 + rng.Intn(5))
	}
	for i := 0; i < edges; i++ {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(100)))
	}
	return b
}

// TestBuildMatchesMapMerge: the sort-based CSR build and the legacy
// map-based merge produce identical graphs on random multigraphs, on
// edges given only reversed (u > v), on self-loops alone, on heavy node
// weights and on graphs with no edges.
func TestBuildMatchesMapMerge(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		reversed, loops, heavy := NewBuilder(n), NewBuilder(n), NewBuilder(n)
		for i, m := 0, rng.Intn(4*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			_ = reversed.AddEdge(max(u, v), min(u, v), int64(1+rng.Intn(100)))
			_ = loops.AddEdge(u, u, int64(1+rng.Intn(100)))
		}
		for v := range heavy.nodeWeight {
			heavy.nodeWeight[v] = rng.Int63n(1 << 40)
		}
		for i, m := 0, rng.Intn(4*n); i < m; i++ {
			_ = heavy.AddEdge(rng.Intn(n), rng.Intn(n), rng.Int63n(1<<40))
		}
		for name, b := range map[string]*Builder{
			"random": randomBuilder(n, rng.Intn(8*n), rng), "reversed": reversed,
			"self-loops": loops, "heavy": heavy, "no edges": randomBuilder(n, 0, rng),
		} {
			sorted := b.Build()
			legacy := b.BuildMapMerge()
			if !sorted.Equal(legacy) {
				t.Fatalf("seed %d, %s: sort-based build diverged from map merge", seed, name)
			}
			if sorted.TotalNodeWeight() != legacy.TotalNodeWeight() {
				t.Fatalf("seed %d, %s: node weight totals differ", seed, name)
			}
		}
	}
}

// sortedEdges draws canonical (U < V) edges sorted by (U, V), parallel
// copies kept adjacent.
func sortedEdges(n, edges int, rng *rand.Rand) []Edge {
	es := make([]Edge, 0, edges)
	for len(es) < edges {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		es = append(es, Edge{U: min(u, v), V: max(u, v), W: int64(1 + rng.Intn(100))})
	}
	slices.SortStableFunc(es, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return es
}

func fromSorted(n int, es []Edge) (*Graph, bool) {
	g, ordered, _ := FromSortedEdgesCtx(nil, NewBuilder(n).nodeWeight, len(es), func(i int) (int32, int32, int64) { return es[i].U, es[i].V, es[i].W })
	return g, ordered
}

// TestFromSortedEdgesMatchesBuilder: the CSR written directly from sorted
// edges is the Builder's, and any input outside the order contract is
// declined rather than built wrong.
func TestFromSortedEdgesMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		n := 2 + rng.Intn(300)
		es := sortedEdges(n, rng.Intn(10*n), rng)
		b := NewBuilder(n)
		for _, e := range es {
			if err := b.AddEdge(int(e.U), int(e.V), e.W); err != nil {
				t.Fatal(err)
			}
		}
		got, ordered := fromSorted(n, es)
		if !ordered || !got.Equal(b.Build()) {
			t.Fatalf("seed %d: ordered=%v, or the graph differs from the Builder's", seed, ordered)
		}
		if len(es) < 2 {
			continue
		}
		i := 1 + rng.Intn(len(es)-1)
		for name, bad := range map[string]Edge{
			"swapped ends":           {U: es[i].V, V: es[i].U, W: 1},
			"self-loop":              {U: es[i].U, V: es[i].U, W: 1},
			"out of range":           {U: es[i].U, V: int32(n), W: 1},
			"negative":               {U: -1, V: es[i].V, W: 1},
			"before its predecessor": {U: es[i-1].U, V: es[i-1].V - 1, W: 1},
		} {
			if name == "before its predecessor" && bad.V <= bad.U {
				continue // that would be declined as non-canonical instead
			}
			mut := slices.Clone(es)
			mut[i] = bad
			if g, ordered := fromSorted(n, mut); ordered || g != nil {
				t.Fatalf("seed %d: %s edge at %d accepted as ordered", seed, name, i)
			}
		}
	}
}

// TestContractWorkerEquivalence: Contract is byte-identical at worker
// counts 1, 2 and 8 for random group mappings.
func TestContractWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		n := 2 + rng.Intn(300)
		g := randomBuilder(n, rng.Intn(10*n), rng).Build()
		numGroups := 1 + rng.Intn(n)
		group := make([]int, n)
		for v := range group {
			group[v] = rng.Intn(numGroups)
		}
		ref, _ := ContractCtx(nil, g, group, numGroups, 1)
		for _, w := range []int{2, 8} {
			if got, _ := ContractCtx(nil, g, group, numGroups, w); !got.Equal(ref) {
				t.Fatalf("seed %d: Contract with %d workers diverged", seed, w)
			}
		}
	}
}

// TestContractTotals: contraction preserves node-weight totals, never
// increases edge weight (intra-group edges vanish), and sums the node
// weights ContractWithWeightsCtx is given by hand.
func TestContractTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomBuilder(120, 600, rng).Build()
	group := make([]int, 120)
	for v := range group {
		group[v] = v / 3
	}
	c, _ := ContractCtx(nil, g, group, 40, 0)
	if c.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatalf("node weight %d -> %d", g.TotalNodeWeight(), c.TotalNodeWeight())
	}
	if c.TotalEdgeWeight() > g.TotalEdgeWeight() {
		t.Fatalf("edge weight grew: %d -> %d", g.TotalEdgeWeight(), c.TotalEdgeWeight())
	}
	nw := make([]int64, 40)
	for v, grp := range group {
		nw[grp] += g.NodeWeight(v)
	}
	for _, w := range []int{1, 2, 8} {
		if cw, _ := ContractWithWeightsCtx(nil, g, group, nw, w); !cw.Equal(c) {
			t.Fatalf("ContractWithWeightsCtx at %d workers differs from ContractCtx", w)
		}
	}
}

func benchBuilder(n, deg int) *Builder {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder(n)
	for i := 0; i < n*deg; i++ {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n), int64(1+rng.Intn(100)))
	}
	return b
}

// BenchmarkGraphBuild compares the legacy map-based edge merge against the
// Builder's sort and CSR write.
func BenchmarkGraphBuild(b *testing.B) {
	bld := benchBuilder(20000, 16)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bld.BuildMapMerge()
		}
	})
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bld.Build()
		}
	})
}

// BenchmarkBuildGraphSorted builds the same canonical sorted edge list by
// the direct ordered scatter and by the Builder (staging copy included), the
// two paths overlap.BuildGraph chooses between.
func BenchmarkBuildGraphSorted(b *testing.B) {
	const n = 20000
	es := sortedEdges(n, n*16, rand.New(rand.NewSource(42)))
	b.Run("ordered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ordered := fromSorted(n, es); !ordered {
				b.Fatal("sorted edges declined")
			}
		}
	})
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := NewBuilder(n)
			for _, e := range es {
				_ = bld.AddEdge(int(e.U), int(e.V), e.W)
			}
			_ = bld.Build()
		}
	})
}

// BuildMapMerge is the pre-CSR reference implementation of Build: a
// map-based edge merge followed by per-node sorting — the oracle the
// parity tests and allocation benchmarks compare the CSR pipeline against.
func (b *Builder) BuildMapMerge() *Graph {
	type key struct{ u, v int32 }
	merged := make(map[key]int64, len(b.edges))
	for _, e := range b.edges {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		merged[key{u, v}] += e.W
	}
	n := len(b.nodeWeight)
	adj := make([][]Arc, n)
	deg := make([]int, n)
	for k := range merged {
		deg[k.u]++
		deg[k.v]++
	}
	for v := range adj {
		adj[v] = make([]Arc, 0, deg[v])
	}
	g := &Graph{nodeWeight: b.nodeWeight}
	for k, w := range merged {
		adj[k.u] = append(adj[k.u], Arc{To: int(k.v), W: w})
		adj[k.v] = append(adj[k.v], Arc{To: int(k.u), W: w})
		g.totalEdgeW += w
		g.numEdges++
	}
	for _, w := range b.nodeWeight {
		g.totalNodeW += w
	}
	g.offsets = make([]int32, n+1)
	total := 0
	for v, arcs := range adj {
		sort.Slice(arcs, func(i, j int) bool { return arcs[i].To < arcs[j].To })
		total += len(arcs)
		g.offsets[v+1] = int32(total)
	}
	g.arcs = make([]Arc, 0, total)
	for _, arcs := range adj {
		g.arcs = append(g.arcs, arcs...)
	}
	return g
}
