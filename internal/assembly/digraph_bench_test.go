package assembly

import (
	"math/rand"
	"testing"

	"focus/internal/simulate"
)

// benchGraph builds a synthetic live graph: a long chain with local
// branch edges and a sprinkling of containment edges, shaped like the
// post-trim graphs the traversal queries walk.
func benchGraph(n int) *DiGraph {
	g := &DiGraph{
		Contigs: make([][]byte, n),
		Weight:  make([]int64, n),
		Removed: make([]bool, n),
		Out:     make([][]Edge, n),
		In:      make([][]Edge, n),
	}
	rng := rand.New(rand.NewSource(7))
	addEdge := func(from, to int32, contain bool) {
		e := Edge{From: from, To: to, Diag: 50, Len: 60, Ident: 0.97, Contain: contain}
		g.Out[from] = append(g.Out[from], e)
		g.In[to] = append(g.In[to], e)
	}
	for v := 0; v < n-1; v++ {
		addEdge(int32(v), int32(v+1), false)
		if v+2 < n && rng.Intn(4) == 0 {
			addEdge(int32(v), int32(v+2), rng.Intn(3) == 0)
		}
	}
	for v := 0; v < n; v += 37 {
		g.Removed[v] = true
	}
	return g
}

var liveSink int

// BenchmarkLiveNeighbourQueries measures the liveOut/liveIn hot path used
// once per step by the master's path join and contig build. Before the
// reusable per-graph scratch these allocated one filtered slice per query
// (~2 allocs per path step); now they run allocation-free.
func BenchmarkLiveNeighbourQueries(b *testing.B) {
	g := benchGraph(4096)
	n := int32(g.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		for v := int32(0); v < n; v++ {
			sum += len(g.liveOut(v)) + len(g.liveIn(v))
		}
		liveSink = sum
	}
}

// BenchmarkSubgraphExtract measures the master's per-phase send-path
// rebuild: partitioning plus the wire view of every partition (the work
// PR 4 moved from map[int32]bool sets to epoch-stamped dense marks and a
// bounded parallel fan-out).
func BenchmarkSubgraphExtract(b *testing.B) {
	g := benchGraph(4096)
	const k = 8
	labels := make([]int32, g.NumNodes())
	for v := range labels {
		labels[v] = int32(v * k / len(labels))
	}
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			var subs []Subgraph
			for i := 0; i < b.N; i++ {
				subs = subgraphsOf(g, labels, k, workers)
			}
			liveSink = len(subs)
		})
	}
}

// BenchmarkBuildDiGraph builds the directed graph of one genome sampled at
// 30x with sequencing errors (the shape of the benchmark's k-sweep: many
// records, most inside a cluster, hundreds of hybrid nodes) by the
// production counting sort and by the map oracle it replaced.
func BenchmarkBuildDiGraph(b *testing.B) {
	h, recs := pipelineHybrid(b, sampleReads(b, simulate.SingleGenome("bench", 20000, 1), 1, 30), 2)
	b.Logf("%d records, %d hybrid nodes", len(recs), len(h.Nodes))
	b.Run("slots", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := BuildDiGraph(h, recs)
			if err != nil {
				b.Fatal(err)
			}
			liveSink = len(g.Out)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			liveSink = len(buildDiGraphMap(h, recs).Out)
		}
	})
	b.Run("clone", func(b *testing.B) {
		g, err := BuildDiGraph(h, recs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			liveSink = len(g.Clone().Out)
		}
	})
}
