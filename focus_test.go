package focus

import (
	"bytes"
	"testing"

	"focus/internal/eval"
	"focus/internal/partition"
	"focus/internal/simulate"
)

// simReads generates a small error-bearing read set from a single genome.
func simReads(t *testing.T, genomeLen int, coverage float64, seed int64) ([]Read, []byte) {
	t.Helper()
	com, err := simulate.BuildCommunity(simulate.SingleGenome("t", genomeLen, seed))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: coverage,
		ErrorRate5: 0.001, ErrorRate3: 0.01,
		Seed: seed + 1, AdapterLen: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs.Reads, com.Genomes[0].Seq
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Preprocess.Trim5 = 6 // strip the simulated adapter
	cfg.Subsets = 2
	cfg.Coarsen.MinNodes = 8
	return cfg
}

func TestBuildStages(t *testing.T) {
	reads, _ := simReads(t, 4000, 6, 100)
	s, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Reads) == 0 || len(s.Records) == 0 {
		t.Fatalf("reads=%d records=%d", len(s.Reads), len(s.Records))
	}
	// Reverse complements were added.
	if len(s.Reads) < len(reads) {
		t.Errorf("expected RC augmentation: %d -> %d", len(reads), len(s.Reads))
	}
	mset, err := s.MultilevelSet()
	if err != nil {
		t.Fatal(err)
	}
	g0 := mset.Levels[0]
	if g0.NumNodes() != len(s.Reads) {
		t.Errorf("G0 has %d nodes for %d reads", g0.NumNodes(), len(s.Reads))
	}
	if len(mset.Levels) < 2 || len(mset.Levels) != len(s.Hyb.Set.Levels) {
		t.Errorf("%d multilevel levels, %d hybrid-set levels", len(mset.Levels), len(s.Hyb.Set.Levels))
	}
	if s.Hyb.G.NumNodes() >= g0.NumNodes() {
		t.Errorf("hybrid graph not reduced: %d vs %d", s.Hyb.G.NumNodes(), g0.NumNodes())
	}
	for _, stage := range []string{"preprocess", "overlap", "graph", "coarsen", "hybrid", "digraph"} {
		if _, ok := s.Timings[stage]; !ok {
			t.Errorf("missing timing for %s", stage)
		}
	}
}

func TestPartitionBothSchemes(t *testing.T) {
	reads, _ := simReads(t, 5000, 6, 101)
	s, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	hres, _, err := s.PartitionHybrid(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mres, _, err := s.PartitionMultilevel(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	hc, oc := s.HybridCuts(hres)
	if hc < 0 || oc < 0 {
		t.Fatalf("cuts %d %d", hc, oc)
	}
	mset, err := s.MultilevelSet()
	if err != nil {
		t.Fatal(err)
	}
	g0 := mset.Levels[0]
	// Edge cut sanity: small relative to total edge weight (paper:
	// < 0.43% on real data; generous bound here).
	if float64(oc) > 0.2*float64(g0.TotalEdgeWeight()) {
		t.Errorf("overlap cut %d vs total %d", oc, g0.TotalEdgeWeight())
	}
	if mc := partition.EdgeCut(g0, mres.Labels()); mc < 0 {
		t.Fatal("negative cut")
	}
	// The cuts read off the records are G0's.
	if want := partition.EdgeCut(g0, s.ReadLabels(hres)); oc != want {
		t.Errorf("overlap cut from records %d, on G0 %d", oc, want)
	}
	if got, want := s.OverlapCut(mres.Labels()), partition.EdgeCut(g0, mres.Labels()); got != want {
		t.Errorf("multilevel cut from records %d, on G0 %d", got, want)
	}
	// Read labels cover every read.
	rl := s.ReadLabels(hres)
	if len(rl) != len(s.Reads) {
		t.Fatalf("read labels %d for %d reads", len(rl), len(s.Reads))
	}
}

func TestAssembleEndToEnd(t *testing.T) {
	reads, genome := simReads(t, 4000, 8, 102)
	res, s, err := Assemble(reads, testConfig(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumContigs == 0 {
		t.Fatal("no contigs")
	}
	if res.Stats.MaxContig < len(genome)/3 {
		t.Errorf("max contig %d for %d bp genome", res.Stats.MaxContig, len(genome))
	}
	// Reference-based check: the assembly must reconstruct most of the
	// genome without misassemblies.
	rep, err := eval.Evaluate(res.Contigs, []eval.Reference{{Name: "g", Seq: genome}}, eval.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenomeFraction < 0.90 {
		t.Errorf("genome fraction = %.3f, want >= 0.90 (%s)", rep.GenomeFraction, rep.Summary())
	}
	if rep.Misassemblies > 1 {
		t.Errorf("misassemblies = %d (%s)", rep.Misassemblies, rep.Summary())
	}
	// Long contigs must closely match the genome (either strand). With
	// sequencing errors the consensus retains occasional mismatches at
	// low-coverage columns, so sample 40-mers and require a solid hit
	// rate rather than exact long-window containment.
	rc := reverseComplement(genome)
	for _, c := range res.Contigs {
		if len(c) < 500 {
			continue
		}
		matches, samples := 0, 0
		for at := 0; at+40 <= len(c); at += 40 {
			samples++
			if bytes.Contains(genome, c[at:at+40]) || bytes.Contains(rc, c[at:at+40]) {
				matches++
			}
		}
		if samples > 0 && matches*10 < samples*6 {
			t.Errorf("contig of %d bp matches genome in only %d/%d samples", len(c), matches, samples)
		}
	}
	if s == nil {
		t.Fatal("stages nil")
	}
}

func reverseComplement(seq []byte) []byte {
	comp := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A', 'N': 'N'}
	out := make([]byte, len(seq))
	for i, b := range seq {
		out[len(seq)-1-i] = comp[b]
	}
	return out
}

func TestAssembleConsistencyAcrossK(t *testing.T) {
	// Table III's property: assembly statistics are stable across
	// partition counts.
	reads, _ := simReads(t, 5000, 8, 103)
	s, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats := map[int]Stats{}
	for _, k := range []int{1, 2, 4} {
		res, _, err := Assemble(reads, testConfig(), k, 2)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		stats[k] = res.Stats
	}
	base := stats[1]
	for _, k := range []int{2, 4} {
		st := stats[k]
		if st.MaxContig < base.MaxContig/2 {
			t.Errorf("k=%d: max contig %d far below k=1's %d", k, st.MaxContig, base.MaxContig)
		}
	}
	_ = s
}

// TestAssembleWithIndels: the banded alignment absorbs 1bp indels, so the
// pipeline still assembles most of the genome.
func TestAssembleWithIndels(t *testing.T) {
	com, err := simulate.BuildCommunity(simulate.SingleGenome("ind", 4000, 105))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: 10,
		ErrorRate5: 0.001, ErrorRate3: 0.01, IndelRate: 0.001,
		Seed: 106,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Preprocess.Trim5 = 0
	res, _, err := Assemble(rs.Reads, cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Evaluate(res.Contigs, []eval.Reference{{Name: "g", Seq: com.Genomes[0].Seq}}, eval.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenomeFraction < 0.80 {
		t.Errorf("genome fraction %.3f with indel reads (%s)", rep.GenomeFraction, rep.Summary())
	}
}

func TestAssembleErrors(t *testing.T) {
	if _, _, err := Assemble(nil, testConfig(), 2, 1); err == nil {
		t.Error("empty read set accepted")
	}
	reads, _ := simReads(t, 3000, 5, 104)
	cfg := testConfig()
	cfg.Overlap.K = 0
	if _, _, err := Assemble(reads, cfg, 2, 1); err == nil {
		t.Error("invalid overlap config accepted")
	}
}
