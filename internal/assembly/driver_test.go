package assembly

import (
	"bytes"
	"math/rand"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/hybrid"
	"focus/internal/overlap"
	"focus/internal/partition"
)

func randGenome(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := make([]byte, n)
	for i := range g {
		g[i] = "ACGT"[rng.Intn(4)]
	}
	return g
}

func tilingReads(genome []byte, l, s int) []dna.Read {
	var reads []dna.Read
	for pos := 0; pos+l <= len(genome); pos += s {
		reads = append(reads, dna.Read{ID: "t", Seq: append([]byte(nil), genome[pos:pos+l]...)})
	}
	return reads
}

// buildPipeline runs reads through overlap -> coarsen -> hybrid ->
// digraph and returns everything needed for a Driver.
func buildPipeline(t *testing.T, reads []dna.Read, k int) (*DiGraph, []int32, *hybrid.Hybrid) {
	t.Helper()
	recs, err := overlap.FindOverlaps(reads, 2, overlap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g0, err := overlap.BuildGraph(len(reads), recs)
	if err != nil {
		t.Fatal(err)
	}
	copt := coarsen.DefaultOptions()
	copt.MinNodes = 2
	mset := coarsen.Multilevel(g0, copt)
	h, err := hybrid.Build(mset, reads, recs, hybrid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dg, err := BuildDiGraph(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	var labels []int32
	if k == 1 || h.G.NumNodes() < 2*k {
		labels = make([]int32, dg.NumNodes())
		for v := range labels {
			labels[v] = int32(v % k)
		}
	} else {
		popt := partition.DefaultOptions(k)
		res, err := partition.PartitionSet(h.Set, popt)
		if err != nil {
			t.Fatal(err)
		}
		labels = res.Labels()
	}
	return dg, labels, h
}

func TestBuildDiGraphOrientsChain(t *testing.T) {
	genome := randGenome(70, 2500)
	reads := tilingReads(genome, 100, 35)
	dg, _, _ := buildPipeline(t, reads, 1)
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
	if numLive(dg) == 0 {
		t.Fatal("empty digraph")
	}
	// All contigs tile one genome: the graph must be acyclic along
	// suffix-prefix edges (diags positive) and connected enough to walk.
	edges := 0
	for v := range dg.Out {
		for _, e := range dg.Out[v] {
			if e.Diag < 0 {
				t.Fatalf("negative diag on %d->%d", e.From, e.To)
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("no edges in digraph")
	}
}

func TestDriverEndToEndSingleWorker(t *testing.T) {
	genome := randGenome(71, 3000)
	reads := tilingReads(genome, 100, 30)
	dg, labels, _ := buildPipeline(t, reads, 1)
	pool, err := dist.NewLocalPool(1, NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d, err := NewDriver(pool, dg, labels, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Trim(); err != nil {
		t.Fatal(err)
	}
	paths, _, err := d.TraverseTimed()
	if err != nil {
		t.Fatal(err)
	}
	contigs := d.BuildContigs(paths)
	st := ComputeStats(contigs)
	if st.NumContigs == 0 {
		t.Fatal("no contigs")
	}
	// Error-free tiling of one genome: the dominant contig must
	// reconstruct most of it and be an exact substring.
	if st.MaxContig < len(genome)*7/10 {
		t.Errorf("max contig %d for genome %d", st.MaxContig, len(genome))
	}
	for i, c := range contigs {
		if len(c) >= 200 && !bytes.Contains(genome, c) {
			t.Errorf("contig %d (%d bp) is not a genome substring", i, len(c))
		}
	}
}

func TestDriverDistributedMatchesSingle(t *testing.T) {
	genome := randGenome(72, 4000)
	reads := tilingReads(genome, 100, 40)

	run := func(k, workers int) Stats {
		dg, labels, _ := buildPipeline(t, reads, k)
		pool, err := dist.NewLocalPool(workers, NewService)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		d, err := NewDriver(pool, dg, labels, k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Trim(); err != nil {
			t.Fatal(err)
		}
		paths, _, err := d.TraverseTimed()
		if err != nil {
			t.Fatal(err)
		}
		return ComputeStats(d.BuildContigs(paths))
	}

	single := run(1, 1)
	multi := run(4, 3)
	// Assembly quality must be consistent across partitionings
	// (paper Table III): allow small variation from partition-boundary
	// path breaks that re-join differently.
	if multi.MaxContig < single.MaxContig/2 {
		t.Errorf("distributed max contig %d far below single %d", multi.MaxContig, single.MaxContig)
	}
	if single.TotalBases == 0 || multi.TotalBases == 0 {
		t.Error("empty assemblies")
	}
}

func TestDriverTrimRemovesRedundancy(t *testing.T) {
	genome := randGenome(73, 2500)
	// Dense tiling creates containments and transitive edges galore.
	reads := tilingReads(genome, 100, 15)
	dg, labels, _ := buildPipeline(t, reads, 2)
	pool, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d, err := NewDriver(pool, dg, labels, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := dg.NumEdges()
	st, err := d.Trim()
	if err != nil {
		t.Fatal(err)
	}
	after := dg.NumEdges()
	if after > before {
		t.Errorf("edges grew: %d -> %d", before, after)
	}
	_ = st
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewDriverValidation(t *testing.T) {
	dg := &DiGraph{
		Contigs: [][]byte{[]byte("A")},
		Weight:  []int64{1},
		Removed: []bool{false},
		Out:     make([][]Edge, 1),
		In:      make([][]Edge, 1),
	}
	if _, err := NewDriver(nil, dg, []int32{0, 1}, 2, DefaultConfig()); err == nil {
		t.Error("label length mismatch accepted")
	}
	if _, err := NewDriver(nil, dg, []int32{5}, 2, DefaultConfig()); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestJoinPathsAcrossPartitions(t *testing.T) {
	// Chain of 4 nodes; partitions {0,1} and {2,3}; worker paths
	// {0,1}, {2,3}; joining must produce {0,1,2,3}.
	dg := &DiGraph{
		Contigs: make([][]byte, 4),
		Weight:  []int64{1, 1, 1, 1},
		Removed: make([]bool, 4),
		Out:     make([][]Edge, 4),
		In:      make([][]Edge, 4),
	}
	for i := range dg.Contigs {
		dg.Contigs[i] = bytes.Repeat([]byte("A"), 100)
	}
	for i := 0; i < 3; i++ {
		e := Edge{From: int32(i), To: int32(i + 1), Diag: 60, Len: 40, Ident: 1}
		dg.Out[i] = append(dg.Out[i], e)
		dg.In[i+1] = append(dg.In[i+1], e)
	}
	d := &Driver{G: dg, Labels: []int32{0, 0, 1, 1}, K: 2, Cfg: DefaultConfig()}
	joined := d.joinPaths([][]int32{{0, 1}, {2, 3}})
	if len(joined) != 1 || len(joined[0]) != 4 {
		t.Fatalf("joined = %v", joined)
	}
	for i, v := range []int32{0, 1, 2, 3} {
		if joined[0][i] != v {
			t.Fatalf("joined = %v", joined)
		}
	}
	contigs := d.BuildContigs(joined)
	if len(contigs) != 1 || len(contigs[0]) != 100+3*60 {
		t.Fatalf("contig len = %d, want 280", len(contigs[0]))
	}
}

func TestBuildContigsDefensivePaths(t *testing.T) {
	dg := &DiGraph{
		Contigs: [][]byte{bytes.Repeat([]byte("A"), 100), bytes.Repeat([]byte("C"), 100)},
		Weight:  []int64{1, 1},
		Removed: make([]bool, 2),
		Out:     make([][]Edge, 2),
		In:      make([][]Edge, 2),
	}
	d := &Driver{G: dg, Labels: []int32{0, 0}, K: 1, Cfg: DefaultConfig()}
	// Path referencing a missing edge: rendering stops at the break
	// instead of panicking.
	contigs := d.BuildContigs([][]int32{{0, 1}})
	if len(contigs) != 1 || len(contigs[0]) != 100 {
		t.Fatalf("contigs = %d (len %d), want the first node only", len(contigs), len(contigs[0]))
	}
	// A contained/covered next contig adds nothing.
	e := Edge{From: 0, To: 1, Diag: 0, Len: 100, Ident: 1}
	dg.Out[0] = append(dg.Out[0], e)
	dg.In[1] = append(dg.In[1], e)
	contigs = d.BuildContigs([][]int32{{0, 1}})
	if len(contigs[0]) != 100 {
		t.Fatalf("covered next contig extended the path: %d bp", len(contigs[0]))
	}
}

func TestJoinPathsRefusesAmbiguousJoin(t *testing.T) {
	// Node 2 has in-edges from both 1 and 4: path {2,3} must not join.
	dg := &DiGraph{
		Contigs: make([][]byte, 5),
		Weight:  []int64{1, 1, 1, 1, 1},
		Removed: make([]bool, 5),
		Out:     make([][]Edge, 5),
		In:      make([][]Edge, 5),
	}
	for i := range dg.Contigs {
		dg.Contigs[i] = bytes.Repeat([]byte("A"), 100)
	}
	add := func(f, to int32) {
		e := Edge{From: f, To: to, Diag: 60, Len: 40, Ident: 1}
		dg.Out[f] = append(dg.Out[f], e)
		dg.In[to] = append(dg.In[to], e)
	}
	add(0, 1)
	add(1, 2)
	add(4, 2)
	add(2, 3)
	d := &Driver{G: dg, Labels: []int32{0, 0, 1, 1, 0}, K: 2, Cfg: DefaultConfig()}
	joined := d.joinPaths([][]int32{{0, 1}, {4}, {2, 3}})
	if len(joined) != 3 {
		t.Fatalf("joined = %v, want 3 separate paths", joined)
	}
}
