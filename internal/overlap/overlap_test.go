package overlap

import (
	"math/rand"
	"testing"

	"focus/internal/align"
	"focus/internal/dna"
	"focus/internal/simulate"
)

// tilingReads cuts a genome into overlapping reads of length l with stride
// s (no errors), so ground-truth overlaps are known exactly.
func tilingReads(genome []byte, l, s int) []dna.Read {
	var reads []dna.Read
	for pos := 0; pos+l <= len(genome); pos += s {
		reads = append(reads, dna.Read{
			ID:  "t",
			Seq: append([]byte(nil), genome[pos:pos+l]...),
		})
	}
	return reads
}

func testConfig() Config { return DefaultConfig() }

func randGenome(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := make([]byte, n)
	for i := range g {
		g[i] = "ACGT"[rng.Intn(4)]
	}
	return g
}

func TestFindOverlapsTiling(t *testing.T) {
	genome := randGenome(50, 2000)
	reads := tilingReads(genome, 100, 40) // consecutive reads overlap by 60
	for _, subsets := range []int{1, 2, 3} {
		recs, err := FindOverlaps(reads, subsets, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Every consecutive pair overlaps by 60 >= 50: must be found.
		found := map[[2]int32]Record{}
		for _, r := range recs {
			found[[2]int32{r.A, r.B}] = r
		}
		for i := 0; i+1 < len(reads); i++ {
			r, ok := found[[2]int32{int32(i), int32(i + 1)}]
			if !ok {
				t.Fatalf("subsets=%d: missing overlap %d-%d", subsets, i, i+1)
			}
			if r.Kind != align.KindSuffixPrefix {
				t.Errorf("kind = %v for consecutive reads", r.Kind)
			}
			if r.Len != 60 {
				t.Errorf("overlap length = %d, want 60", r.Len)
			}
			if r.Identity != 1 {
				t.Errorf("identity = %v", r.Identity)
			}
			if r.Diag != 40 {
				t.Errorf("diag = %d, want 40", r.Diag)
			}
		}
	}
}

func TestFindOverlapsSubsetInvariance(t *testing.T) {
	genome := randGenome(51, 1500)
	reads := tilingReads(genome, 100, 50)
	base, err := FindOverlaps(reads, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("no overlaps found")
	}
	for _, subsets := range []int{2, 4, 7} {
		recs, err := FindOverlaps(reads, subsets, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(base) {
			t.Fatalf("subsets=%d: %d records vs %d with one subset", subsets, len(recs), len(base))
		}
		for i := range base {
			if recs[i] != base[i] {
				t.Fatalf("subsets=%d: record %d differs: %+v vs %+v", subsets, i, recs[i], base[i])
			}
		}
	}
}

func TestFindOverlapsNoFalsePositives(t *testing.T) {
	// Two unrelated random genomes: reads from different genomes must not
	// overlap (random 100-mers share no 50bp/90% alignment).
	g1 := randGenome(52, 800)
	g2 := randGenome(53, 800)
	reads := append(tilingReads(g1, 100, 50), tilingReads(g2, 100, 50)...)
	half := int32(len(tilingReads(g1, 100, 50)))
	recs, err := FindOverlaps(reads, 2, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if (r.A < half) != (r.B < half) {
			t.Errorf("cross-genome overlap %d-%d", r.A, r.B)
		}
	}
}

func TestFindOverlapsContainment(t *testing.T) {
	genome := randGenome(54, 400)
	long := dna.Read{ID: "long", Seq: genome[:200]}
	short := dna.Read{ID: "short", Seq: append([]byte(nil), genome[50:150]...)}
	recs, err := FindOverlaps([]dna.Read{long, short}, 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].A != 0 || recs[0].B != 1 || recs[0].Kind != align.KindAContainsB {
		t.Errorf("record = %+v", recs[0])
	}
}

func TestFindOverlapsToleratesErrors(t *testing.T) {
	// Simulated reads with sequencing errors still overlap at >= 90%.
	com, err := simulate.BuildCommunity(simulate.SingleGenome("g", 3000, 55))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: 8, ErrorRate5: 0.002, ErrorRate3: 0.01, Seed: 56,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := FindOverlaps(rs.Reads, 3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At 8x coverage nearly every read overlaps several others.
	if len(recs) < len(rs.Reads) {
		t.Errorf("only %d overlaps for %d reads", len(recs), len(rs.Reads))
	}
	for _, r := range recs {
		if r.Identity < 0.90 {
			t.Errorf("record below identity threshold: %+v", r)
		}
		if r.Len < 50 {
			t.Errorf("record below length threshold: %+v", r)
		}
		if r.A >= r.B {
			t.Errorf("record not canonical: %+v", r)
		}
	}
}

// Flip returns the record with A and B exchanged and the geometry
// re-expressed from the new A's point of view: a record as the other
// read's query would have found it, which the stage never makes (each
// pair is attempted from its lower id) but the graph tests feed in.
func (r Record) Flip() Record {
	f := Record{A: r.B, B: r.A, Len: r.Len, Identity: r.Identity, Diag: -r.Diag}
	switch r.Kind {
	case align.KindSuffixPrefix:
		f.Kind = align.KindPrefixSuffix
	case align.KindPrefixSuffix:
		f.Kind = align.KindSuffixPrefix
	case align.KindAContainsB:
		f.Kind = align.KindBContainsA
	case align.KindBContainsA:
		f.Kind = align.KindAContainsB
	default:
		f.Kind = r.Kind
	}
	return f
}

func TestRecordFlip(t *testing.T) {
	r := Record{A: 1, B: 2, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95, Diag: 40}
	f := r.Flip()
	if f.A != 2 || f.B != 1 || f.Kind != align.KindPrefixSuffix || f.Diag != -40 {
		t.Errorf("flip = %+v", f)
	}
	if ff := f.Flip(); ff != r {
		t.Errorf("double flip = %+v, want %+v", ff, r)
	}
	c := Record{A: 3, B: 4, Kind: align.KindAContainsB, Diag: 10}
	if c.Flip().Kind != align.KindBContainsA {
		t.Errorf("containment flip = %v", c.Flip().Kind)
	}
}

func TestBuildGraph(t *testing.T) {
	recs := []Record{
		{A: 0, B: 1, Len: 60},
		{A: 1, B: 2, Len: 70},
	}
	g, err := BuildGraph(3, recs)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.EdgeWeight(0, 1) != 60 {
		t.Errorf("weight = %d", g.EdgeWeight(0, 1))
	}
	if _, err := BuildGraph(2, recs); err == nil {
		t.Error("out-of-range record accepted")
	}
}

func TestFindOverlapsConfigErrors(t *testing.T) {
	reads := tilingReads(randGenome(57, 300), 100, 50)
	cfg := testConfig()
	cfg.K = 0
	if _, err := FindOverlaps(reads, 1, cfg); err == nil {
		t.Error("k=0 accepted")
	}
	cfg = testConfig()
	cfg.K = 40
	if _, err := FindOverlaps(reads, 1, cfg); err == nil {
		t.Error("k=40 accepted")
	}
	if _, err := FindOverlaps(reads, 0, testConfig()); err == nil {
		t.Error("0 subsets accepted")
	}
}

func TestFindOverlapsRepeatMasking(t *testing.T) {
	// A low MaxOccur plus a highly repetitive genome: seeds inside the
	// repeat are skipped but unique flanks still anchor overlaps.
	rep := randGenome(58, 30)
	genome := make([]byte, 0, 1200)
	for i := 0; i < 6; i++ {
		genome = append(genome, randGenome(int64(59+i), 150)...)
		genome = append(genome, rep...)
	}
	reads := tilingReads(genome, 100, 40)
	cfg := testConfig()
	cfg.MaxOccur = 4
	recs, err := FindOverlaps(reads, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]int32]bool{}
	for _, r := range recs {
		found[[2]int32{r.A, r.B}] = true
	}
	for i := 0; i+1 < len(reads); i++ {
		if !found[[2]int32{int32(i), int32(i + 1)}] {
			t.Fatalf("missing consecutive overlap %d-%d with repeat masking", i, i+1)
		}
	}
}
