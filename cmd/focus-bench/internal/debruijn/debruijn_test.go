package debruijn

import (
	"bytes"
	"math/rand"
	"testing"

	"focus/internal/assembly"
	"focus/internal/dna"
	"focus/internal/simulate"
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

func TestBuildCountsKmers(t *testing.T) {
	reads := []dna.Read{{ID: "a", Seq: []byte("ACGTACGTAC")}}
	g, err := Build(reads, Config{K: 4, MinKmerCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 7 windows but k-mers repeat: ACGT x2, CGTA x2, GTAC x2, TACG x1.
	if g.NumKmers() != 4 {
		t.Errorf("NumKmers = %d, want 4", g.NumKmers())
	}
	km, _ := dna.PackKmer([]byte("ACGT"), 4)
	if g.Coverage(km) != 2 {
		t.Errorf("Coverage(ACGT) = %d, want 2", g.Coverage(km))
	}
}

func TestBuildFiltersLowCoverage(t *testing.T) {
	reads := []dna.Read{
		{ID: "a", Seq: []byte("ACGTACGT")},
		{ID: "b", Seq: []byte("ACGTACGT")},
		{ID: "err", Seq: []byte("TTTTGGGG")},
	}
	g, err := Build(reads, Config{K: 5, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	km, _ := dna.PackKmer([]byte("TTTTG"), 5)
	if g.Coverage(km) != 0 {
		t.Error("singleton k-mer survived filtering")
	}
	km, _ = dna.PackKmer([]byte("ACGTA"), 5)
	if g.Coverage(km) == 0 {
		t.Error("well-covered k-mer filtered")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Build(nil, Config{K: 32}); err == nil {
		t.Error("k=32 accepted")
	}
}

func TestUnitigsReconstructCleanGenome(t *testing.T) {
	genome := randGenome(90, 3000)
	reads := tilingReads(genome, 100, 10)
	g, err := Build(reads, Config{K: 25, MinKmerCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	unitigs := g.Unitigs()
	// A random 3 kb genome has essentially no repeated 25-mers: one
	// unitig spanning the whole genome is expected.
	if len(unitigs) != 1 {
		t.Fatalf("got %d unitigs, want 1", len(unitigs))
	}
	if !bytes.Equal(unitigs[0].Seq, genome) {
		t.Errorf("unitig (%d bp) != genome (%d bp)", len(unitigs[0].Seq), len(genome))
	}
	if unitigs[0].Coverage < 2 {
		t.Errorf("coverage = %v", unitigs[0].Coverage)
	}
}

func TestUnitigsCoverEveryKmerOnce(t *testing.T) {
	genome := randGenome(91, 2000)
	// Insert a repeat to force branching.
	copy(genome[1500:], genome[200:400])
	reads := tilingReads(genome, 100, 15)
	g, err := Build(reads, Config{K: 21, MinKmerCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, u := range g.Unitigs() {
		total += u.Kmers
	}
	if total != g.NumKmers() {
		t.Errorf("unitigs cover %d k-mers, graph has %d", total, g.NumKmers())
	}
}

func TestClipTipsRemovesErrorBranch(t *testing.T) {
	genome := randGenome(92, 1500)
	reads := tilingReads(genome, 100, 10)
	// One erroneous read creating a tip: copy of a genome read with the
	// last base flipped.
	bad := append([]byte(nil), genome[500:600]...)
	if bad[99] == 'A' {
		bad[99] = 'C'
	} else {
		bad[99] = 'A'
	}
	reads = append(reads, dna.Read{ID: "bad", Seq: bad})
	g, err := Build(reads, Config{K: 21, MinKmerCount: 1, TipFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumKmers()
	removed := 0
	for i := 0; i < 8; i++ {
		n := g.ClipTips()
		removed += n
		if n == 0 {
			break
		}
	}
	if removed == 0 {
		t.Fatal("no tips clipped")
	}
	if g.NumKmers() != before-removed {
		t.Errorf("kmer accounting: %d -> %d after removing %d", before, g.NumKmers(), removed)
	}
	// After clipping, the genome assembles into one unitig again.
	unitigs := g.Unitigs()
	longest := 0
	for _, u := range unitigs {
		if len(u.Seq) > longest {
			longest = len(u.Seq)
		}
	}
	if longest != len(genome) {
		t.Errorf("longest unitig %d, want %d", longest, len(genome))
	}
}

func TestAssembleEndToEnd(t *testing.T) {
	com, err := simulate.BuildCommunity(simulate.SingleGenome("db", 8000, 93))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: 15, ErrorRate5: 0.001, ErrorRate3: 0.005, Seed: 94,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Add reverse complements as the Focus pipeline does.
	reads := append([]dna.Read(nil), rs.Reads...)
	for _, r := range rs.Reads {
		reads = append(reads, dna.Read{ID: r.ID + "~rc", Seq: dna.ReverseComplement(r.Seq)})
	}
	contigs, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := assembly.ComputeStats(contigs)
	if st.NumContigs == 0 {
		t.Fatal("no contigs")
	}
	if st.MaxContig < 2000 {
		t.Errorf("max contig %d for an 8 kb genome at 15x", st.MaxContig)
	}
	// Long contigs must match the genome on one strand.
	genome := com.Genomes[0].Seq
	rc := dna.ReverseComplement(genome)
	for _, c := range contigs {
		if len(c) < 500 {
			continue
		}
		hits, samples := 0, 0
		for at := 0; at+40 <= len(c); at += 40 {
			samples++
			if bytes.Contains(genome, c[at:at+40]) || bytes.Contains(rc, c[at:at+40]) {
				hits++
			}
		}
		if hits*10 < samples*8 {
			t.Errorf("contig %d bp matches genome in %d/%d samples", len(c), hits, samples)
		}
	}
}

func TestAssembleDeterministic(t *testing.T) {
	genome := randGenome(95, 2000)
	reads := tilingReads(genome, 100, 20)
	a, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d contigs", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("contig %d differs across runs", i)
		}
	}
}
