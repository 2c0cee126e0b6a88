package hybrid

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/overlap"
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

// pipeline builds overlap records, G0 and the multilevel set for reads.
func pipeline(t *testing.T, reads []dna.Read) ([]overlap.Record, *graph.Set) {
	t.Helper()
	cfg := overlap.DefaultConfig()
	recs, err := overlap.FindOverlaps(reads, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g0, err := overlap.BuildGraph(len(reads), recs)
	if err != nil {
		t.Fatal(err)
	}
	copt := coarsen.DefaultOptions()
	copt.MinNodes = 2
	return recs, coarsen.Multilevel(g0, copt)
}

func TestBuildLinearGenome(t *testing.T) {
	genome := randGenome(60, 3000)
	reads := tilingReads(genome, 100, 30)
	recs, mset := pipeline(t, reads)
	h, err := Build(mset, reads, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Coverage: every read in exactly one representative.
	seen := make([]bool, len(reads))
	for i, n := range h.Nodes {
		if len(n.Members) != len(n.Offsets) {
			t.Fatalf("node %d: members/offsets mismatch", i)
		}
		for _, m := range n.Members {
			if seen[m] {
				t.Fatalf("read %d in two representatives", m)
			}
			seen[m] = true
			if h.RepOf[m] != i {
				t.Fatalf("RepOf[%d] = %d, want %d", m, h.RepOf[m], i)
			}
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("read %d uncovered", v)
		}
	}

	// A clean linear genome must compress into far fewer hybrid nodes
	// than reads.
	if len(h.Nodes) >= len(reads)/2 {
		t.Errorf("hybrid graph has %d nodes for %d reads; expected strong reduction", len(h.Nodes), len(reads))
	}

	// Error-free tiling: every contig must occur exactly in the genome.
	for i, n := range h.Nodes {
		if len(n.Members) == 1 {
			continue
		}
		if !bytes.Contains(genome, n.Contig) {
			t.Errorf("contig of node %d (level %d, %d reads, %d bp) not a genome substring", i, n.Level, len(n.Members), len(n.Contig))
		}
	}

	if err := h.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Level 0 of the hybrid set is the hybrid graph itself.
	if h.Set.Levels[0].NumNodes() != h.G.NumNodes() {
		t.Fatalf("set level 0 has %d nodes, hybrid graph %d", h.Set.Levels[0].NumNodes(), h.G.NumNodes())
	}
	if h.Set.Levels[0].TotalEdgeWeight() != h.G.TotalEdgeWeight() {
		t.Errorf("set level 0 edge weight %d, hybrid graph %d", h.Set.Levels[0].TotalEdgeWeight(), h.G.TotalEdgeWeight())
	}
	for v := 0; v < h.G.NumNodes(); v++ {
		if h.Set.Levels[0].NodeWeight(v) != h.G.NodeWeight(v) {
			t.Fatalf("node %d weight differs between set level 0 and hybrid graph", v)
		}
	}

	// The hybrid set is never larger than the multilevel set, level by
	// level (representatives only merge nodes).
	for i := range h.Set.Levels {
		if h.Set.Levels[i].NumNodes() > mset.Levels[i].NumNodes() {
			t.Errorf("hybrid level %d larger than multilevel: %d > %d", i, h.Set.Levels[i].NumNodes(), mset.Levels[i].NumNodes())
		}
	}
}

func TestBuildDetectsRepeatConflicts(t *testing.T) {
	// Genome with a long exact repeat: reads inside the two repeat copies
	// are near-identical, so clusters collapsing both copies are
	// non-linear and must be rejected (representatives descend).
	rng := rand.New(rand.NewSource(61))
	_ = rng
	left := randGenome(62, 800)
	rep := randGenome(63, 300)
	mid := randGenome(64, 800)
	genome := append(append(append(append([]byte{}, left...), rep...), mid...), rep...)
	genome = append(genome, randGenome(65, 800)...)
	reads := tilingReads(genome, 100, 25)
	recs, mset := pipeline(t, reads)
	h, err := Build(mset, reads, recs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All contigs from multi-read clusters must still be genome
	// substrings (no chimeras from the repeat).
	bad := 0
	for _, n := range h.Nodes {
		if len(n.Members) > 1 && !bytes.Contains(genome, n.Contig) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d chimeric contigs built across repeat copies", bad)
	}
}

// scratchFor is a layout scratch over the incidence of recs.
func scratchFor(t *testing.T, reads []dna.Read, recs []overlap.Record) *layoutScratch {
	t.Helper()
	inc, err := buildIncidence(len(reads), recs)
	if err != nil {
		t.Fatal(err)
	}
	return newLayoutScratch(len(reads), reads, inc, DefaultConfig())
}

func TestTryLayoutRejectsInconsistentPositions(t *testing.T) {
	// Two records that disagree about the relative position of reads 0,1.
	reads := []dna.Read{
		{ID: "a", Seq: bytes.Repeat([]byte("A"), 100)},
		{ID: "b", Seq: bytes.Repeat([]byte("A"), 100)},
		{ID: "c", Seq: bytes.Repeat([]byte("A"), 100)},
	}
	recs := []overlap.Record{
		{A: 0, B: 1, Len: 60, Identity: 1, Diag: 40},
		{A: 1, B: 2, Len: 60, Identity: 1, Diag: 40},
		{A: 0, B: 2, Len: 90, Identity: 1, Diag: 10}, // conflicts: should be 80
	}
	s := scratchFor(t, reads, recs)
	if _, ok := s.tryLayout([]int{0, 1, 2}, 1); ok {
		t.Error("inconsistent cluster accepted as linear")
	}
	// Consistent version must pass.
	recs[2].Diag = 80
	s = scratchFor(t, reads, recs)
	if _, ok := s.tryLayout([]int{0, 1, 2}, 1); !ok {
		t.Error("consistent cluster rejected")
	}
}

func TestTryLayoutRejectsDisconnected(t *testing.T) {
	reads := []dna.Read{
		{ID: "a", Seq: bytes.Repeat([]byte("A"), 100)},
		{ID: "b", Seq: bytes.Repeat([]byte("C"), 100)},
	}
	s := scratchFor(t, reads, nil)
	if _, ok := s.tryLayout([]int{0, 1}, 1); ok {
		t.Error("disconnected cluster accepted")
	}
}

func TestTryLayoutSingleton(t *testing.T) {
	reads := []dna.Read{{ID: "a", Seq: []byte("ACGT")}}
	s := scratchFor(t, reads, nil)
	n, ok := s.tryLayout([]int{0}, 0)
	if !ok || string(n.Contig) != "ACGT" || n.Level != 0 {
		t.Errorf("singleton layout = %+v ok=%v", n, ok)
	}
}

func TestTryLayoutConsensusFixesErrors(t *testing.T) {
	// Three reads tile a region; one read has an error in the overlap;
	// majority vote must recover the true base.
	genome := randGenome(66, 200)
	r0 := append([]byte(nil), genome[0:100]...)
	r1 := append([]byte(nil), genome[30:130]...)
	r2 := append([]byte(nil), genome[60:160]...)
	// Introduce an error in r1 at genome position 70 (r1 offset 40),
	// which is covered by r0 (offset 70) and r2 (offset 10).
	truth := genome[70]
	var wrong byte = 'A'
	if truth == 'A' {
		wrong = 'C'
	}
	r1[40] = wrong
	reads := []dna.Read{{ID: "0", Seq: r0}, {ID: "1", Seq: r1}, {ID: "2", Seq: r2}}
	recs := []overlap.Record{
		{A: 0, B: 1, Len: 70, Identity: 0.98, Diag: 30},
		{A: 1, B: 2, Len: 70, Identity: 0.98, Diag: 30},
		{A: 0, B: 2, Len: 40, Identity: 1, Diag: 60},
	}
	s := scratchFor(t, reads, recs)
	n, ok := s.tryLayout([]int{0, 1, 2}, 1)
	if !ok {
		t.Fatal("cluster rejected")
	}
	if len(n.Contig) != 160 {
		t.Fatalf("contig length = %d, want 160", len(n.Contig))
	}
	if n.Contig[70] != truth {
		t.Errorf("consensus base = %c, want %c", n.Contig[70], truth)
	}
	if !bytes.Equal(n.Contig, genome[:160]) {
		t.Error("contig does not match genome")
	}
}

func TestBuildValidation(t *testing.T) {
	b := graph.NewBuilder(2)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	set := &graph.Set{Levels: []*graph.Graph{g}}
	if _, err := Build(set, []dna.Read{{ID: "a", Seq: []byte("A")}}, nil, DefaultConfig()); err == nil {
		t.Error("read/node count mismatch accepted")
	}
	if _, err := Build(&graph.Set{}, nil, nil, DefaultConfig()); err == nil {
		t.Error("empty set accepted")
	}
	two := []dna.Read{{ID: "a", Seq: []byte("A")}, {ID: "b", Seq: []byte("C")}}
	for _, r := range []overlap.Record{{A: 0, B: 2}, {A: -1, B: 1}} {
		_, err := Build(set, two, []overlap.Record{{A: 0, B: 1}, r}, DefaultConfig())
		if err == nil || !strings.Contains(err.Error(), "record 1 ") {
			t.Errorf("record %+v naming a read outside the set: err = %v, want an error naming record 1", r, err)
		}
	}
}
