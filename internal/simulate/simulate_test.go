package simulate

import (
	"fmt"
	"math"
	"testing"

	"focus/internal/dna"
)

func testSpec() CommunitySpec {
	return CommunitySpec{
		Name: "test",
		Seed: 42,
		Genera: []GenusSpec{
			{Genus: "A", Phylum: "P1", GenomeLen: 2000, Abundance: 1, Divergence: 0.05},
			{Genus: "B", Phylum: "P1", GenomeLen: 1500, Abundance: 2, Divergence: 0.05},
			{Genus: "C", Phylum: "P2", GenomeLen: 2000, Abundance: 1, Divergence: 0.05},
		},
	}
}

func TestBuildCommunityDeterministic(t *testing.T) {
	c1, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Genomes {
		if string(c1.Genomes[i].Seq) != string(c2.Genomes[i].Seq) {
			t.Fatalf("genome %d differs across runs with same seed", i)
		}
	}
}

func TestBuildCommunityLengthsAndValidity(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Genomes) != 3 {
		t.Fatalf("got %d genomes", len(c.Genomes))
	}
	wantLens := []int{2000, 1500, 2000}
	for i, g := range c.Genomes {
		if len(g.Seq) != wantLens[i] {
			t.Errorf("genome %d len = %d, want %d", i, len(g.Seq), wantLens[i])
		}
		if err := dna.ValidateSeq(g.Seq); err != nil {
			t.Errorf("genome %d: %v", i, err)
		}
	}
	if c.TotalBases() != 5500 {
		t.Errorf("TotalBases = %d, want 5500", c.TotalBases())
	}
}

// Same-phylum genomes must be similar (shared ancestor), cross-phylum
// genomes must not be.
func TestPhylumRelatedness(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ident := func(a, b []byte) float64 {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		same := 0
		for i := 0; i < n; i++ {
			if a[i] == b[i] {
				same++
			}
		}
		return float64(same) / float64(n)
	}
	ab := ident(c.Genomes[0].Seq, c.Genomes[1].Seq)
	ac := ident(c.Genomes[0].Seq, c.Genomes[2].Seq)
	if ab < 0.85 {
		t.Errorf("same-phylum identity = %v, want >= 0.85", ab)
	}
	if ac > 0.40 {
		t.Errorf("cross-phylum identity = %v, want ~0.25 (random)", ac)
	}
}

func TestBuildCommunityErrors(t *testing.T) {
	if _, err := BuildCommunity(CommunitySpec{Name: "x"}); err == nil {
		t.Error("empty community accepted")
	}
	bad := testSpec()
	bad.Genera[0].GenomeLen = 0
	if _, err := BuildCommunity(bad); err == nil {
		t.Error("zero-length genome accepted")
	}
}

func TestRepeatsInserted(t *testing.T) {
	spec := testSpec()
	spec.RepeatLen = 100
	spec.RepeatCopies = 3
	c, err := BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Each genome keeps its configured length despite repeat insertion.
	if len(c.Genomes[0].Seq) != 2000 {
		t.Errorf("len = %d after repeat insertion", len(c.Genomes[0].Seq))
	}
}

func TestSimulateReadsBasics(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ReadConfig{ReadLen: 100, Coverage: 5, ErrorRate5: 0.001, ErrorRate3: 0.02, Seed: 9, AdapterLen: 5}
	rs, err := SimulateReads(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Reads) == 0 {
		t.Fatal("no reads produced")
	}
	if len(rs.Reads) != len(rs.Origins) {
		t.Fatal("origins not parallel to reads")
	}
	// ~coverage * totalBases / readLen reads expected (within rounding).
	want := float64(c.TotalBases()) * cfg.Coverage / float64(cfg.ReadLen)
	if math.Abs(float64(len(rs.Reads))-want) > want*0.1 {
		t.Errorf("read count %d, want about %v", len(rs.Reads), want)
	}
	for i, r := range rs.Reads {
		if len(r.Seq) != cfg.ReadLen+cfg.AdapterLen {
			t.Fatalf("read %d len = %d", i, len(r.Seq))
		}
		if len(r.Qual) != len(r.Seq) {
			t.Fatalf("read %d qual len mismatch", i)
		}
		if err := dna.ValidateSeq(r.Seq); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestSimulateReadsAbundanceProportions(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateReads(c, ReadConfig{ReadLen: 50, Coverage: 20, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, o := range rs.Origins {
		counts[o.GenomeID]++
	}
	// Genus B has 2x the abundance of A and C.
	a := counts[c.Genomes[0].ID]
	b := counts[c.Genomes[1].ID]
	if b < a {
		t.Errorf("abundance not respected: a=%d b=%d", a, b)
	}
}

func TestOriginRoundTrip(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateReads(c, ReadConfig{ReadLen: 60, Coverage: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs.Reads {
		o, strand := rs.Origins[i], "+"
		if o.Reverse {
			strand = "-"
		}
		if want := fmt.Sprintf("r%06d|%s|%d|%s", i, o.GenomeID, o.Pos, strand); r.ID != want {
			t.Fatalf("read %d id %q, want %q", i, r.ID, want)
		}
	}
}

// Reads without errors must match their source genome exactly; with the
// error ramp, 3' ends must degrade.
func TestReadFidelity(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateReads(c, ReadConfig{ReadLen: 80, Coverage: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string][]byte{}
	for _, g := range c.Genomes {
		byID[g.ID] = g.Seq
	}
	for i, r := range rs.Reads {
		o := rs.Origins[i]
		frag := append([]byte(nil), byID[o.GenomeID][o.Pos:o.Pos+80]...)
		if o.Reverse {
			dna.ReverseComplementInPlace(frag)
		}
		if string(frag) != string(r.Seq) {
			t.Fatalf("error-free read %d does not match genome", i)
		}
	}
}

func TestErrorRampDegradesQuality(t *testing.T) {
	c, err := BuildCommunity(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateReads(c, ReadConfig{ReadLen: 100, Coverage: 5, ErrorRate5: 0.001, ErrorRate3: 0.05, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := 0.0, 0.0
	for _, r := range rs.Reads {
		for i := 0; i < 10; i++ {
			head += float64(r.PhredQuality(i))
			tail += float64(r.PhredQuality(len(r.Seq) - 1 - i))
		}
	}
	if tail >= head {
		t.Errorf("3' quality (%v) not lower than 5' quality (%v)", tail, head)
	}
}

func TestPaperDataSets(t *testing.T) {
	for id := 1; id <= 3; id++ {
		spec, err := PaperDataSet(id, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		c, err := BuildCommunity(spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.TotalBases() == 0 {
			t.Fatalf("D%d empty", id)
		}
		cfg := PaperReadConfig(id, 4)
		if cfg.ReadLen != 100 {
			t.Errorf("D%d read length %d, want 100 (Table I)", id, cfg.ReadLen)
		}
		rs, err := SimulateReads(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Reads) == 0 {
			t.Fatalf("D%d produced no reads", id)
		}
	}
	if _, err := PaperDataSet(4, 1); err == nil {
		t.Error("data set 4 accepted")
	}
	if _, err := PaperDataSet(1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
}

func TestSimulateReadsErrors(t *testing.T) {
	c, _ := BuildCommunity(testSpec())
	if _, err := SimulateReads(c, ReadConfig{ReadLen: 0, Coverage: 1}); err == nil {
		t.Error("zero read length accepted")
	}
	if _, err := SimulateReads(c, ReadConfig{ReadLen: 100, Coverage: 0}); err == nil {
		t.Error("zero coverage accepted")
	}
	if _, err := SimulateReads(c, ReadConfig{ReadLen: 10000, Coverage: 1}); err == nil {
		t.Error("read longer than genome accepted")
	}
	zero := testSpec()
	for i := range zero.Genera {
		zero.Genera[i].Abundance = 0
	}
	cz, _ := BuildCommunity(zero)
	if _, err := SimulateReads(cz, ReadConfig{ReadLen: 10, Coverage: 1}); err == nil {
		t.Error("zero total abundance accepted")
	}
}

func TestSimulateIndelReads(t *testing.T) {
	c, err := BuildCommunity(SingleGenome("i", 5000, 70))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SimulateReads(c, ReadConfig{ReadLen: 100, Coverage: 6, Seed: 71, IndelRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	genome := c.Genomes[0].Seq
	shifted := 0
	for i, r := range rs.Reads {
		if len(r.Seq) != 100 {
			t.Fatalf("read %d length %d", i, len(r.Seq))
		}
		o := rs.Origins[i]
		seq := r.Seq
		if o.Reverse {
			seq = dna.ReverseComplement(seq)
		}
		if string(seq) != string(genome[o.Pos:o.Pos+100]) {
			shifted++
		}
	}
	// At 1% indel rate most 100bp reads carry at least one indel.
	if shifted < len(rs.Reads)/2 {
		t.Errorf("only %d/%d reads affected by indels", shifted, len(rs.Reads))
	}
	// Reads still start at their origin (the first bases survive until
	// the first indel): the 10bp prefix usually matches.
	match := 0
	for i, r := range rs.Reads {
		o := rs.Origins[i]
		seq := r.Seq
		if o.Reverse {
			seq = dna.ReverseComplement(seq)
		}
		if string(seq[:10]) == string(genome[o.Pos:o.Pos+10]) {
			match++
		}
	}
	if match < len(rs.Reads)*7/10 {
		t.Errorf("only %d/%d reads anchored at origin", match, len(rs.Reads))
	}
}

func TestSingleGenome(t *testing.T) {
	c, err := BuildCommunity(SingleGenome("g", 5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Genomes) != 1 || len(c.Genomes[0].Seq) != 5000 {
		t.Fatalf("unexpected community %+v", c.Spec)
	}
	if c.Genomes[0].Genus != "Testus" {
		t.Errorf("genus = %q", c.Genomes[0].Genus)
	}
}

func TestGutGenera(t *testing.T) {
	spec, err := PaperDataSet(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Genera) != 10 {
		t.Fatalf("got %d genera", len(spec.Genera))
	}
	counts := map[string]int{}
	for _, g := range spec.Genera {
		counts[g.Phylum]++
	}
	if counts["Bacteroidetes"] != 4 || counts["Firmicutes"] != 4 || counts["Proteobacteria"] != 2 {
		t.Errorf("phylum distribution %v", counts)
	}
}
