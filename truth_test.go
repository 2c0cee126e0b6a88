package focus

import (
	"fmt"
	"testing"

	"focus/internal/eval"
	"focus/internal/simulate"
)

// paperAssembly assembles the analogue of paper data set d at scale 0.1
// and 8× coverage, its reads error-free and adapter-free when clean, and
// scores the contigs against the community's genomes. It also returns the
// reads that keep no overlap record (degree 0 in G0) and the contigs of at
// most 100 bp.
func paperAssembly(t *testing.T, d int, clean bool) (rep *eval.Report, isolated, short int) {
	t.Helper()
	spec, err := simulate.PaperDataSet(d, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rc := simulate.PaperReadConfig(d, 8)
	if clean {
		rc.ErrorRate5, rc.ErrorRate3, rc.AdapterLen = 0, 0, 0
	}
	rs, err := simulate.SimulateReads(com, rc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Preprocess.Trim5 = rc.AdapterLen
	res, stages, err := Assemble(rs.Reads, cfg, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refs []eval.Reference
	for _, g := range com.Genomes {
		refs = append(refs, eval.Reference{Name: g.ID, Seq: g.Seq})
	}
	rep, err = eval.Evaluate(res.Contigs, refs, eval.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	overlapped := make([]bool, len(stages.Reads))
	for _, r := range stages.Records {
		overlapped[r.A], overlapped[r.B] = true, true
	}
	for _, ok := range overlapped {
		if !ok {
			isolated++
		}
	}
	for _, c := range res.Contigs {
		if len(c) <= 100 {
			short++
		}
	}
	return rep, isolated, short
}

// TestGroundTruth scores the assembly against the genomes the reads were
// drawn from, on the D1–D3 analogues at scale 0.1: with error-free reads
// (no sequencing error, no adapter) and with the paper's reads. Each case
// states a genome-fraction floor and a misassembly ceiling; both were
// measured when the overlap stage became independent of the subset count,
// and a change that moves them argues the move. Error-free reads still
// misassemble D1 and D2: their genera share loci within the 90 % identity
// the overlaps accept, so reads of two genomes overlap there and a contig
// can cross over. D3's error-free assembly has none.
//
// Each case also holds ceilings on the reads that keep no overlap record
// and on the contigs of at most 100 bp (one read's length): under the
// global repeat mask a read whose every sampled seed is masked keeps no
// record and becomes a contig of its own. The ceilings are the counts
// measured when the mask landed; a change that moves them argues the
// move (ROADMAP item 15(b)).
func TestGroundTruth(t *testing.T) {
	for _, tc := range []struct {
		d             int
		clean         bool
		floor         float64
		misassemblies int
		isolated      int
		short         int
	}{
		{1, true, 0.86, 3, 4, 4},
		{2, true, 0.96, 6, 2, 2},
		{3, true, 0.90, 0, 6, 6},
		{2, false, 0.97, 4, 0, 0},
	} {
		t.Run(fmt.Sprintf("D%d/clean=%v", tc.d, tc.clean), func(t *testing.T) {
			rep, isolated, short := paperAssembly(t, tc.d, tc.clean)
			if rep.GenomeFraction < tc.floor || rep.Misassemblies > tc.misassemblies {
				t.Fatalf("%s; want genome fraction >= %.2f and at most %d misassemblies", rep.Summary(), tc.floor, tc.misassemblies)
			}
			if isolated > tc.isolated || short > tc.short {
				t.Fatalf("%d reads with no overlap record and %d contigs <= 100 bp; want at most %d and %d",
					isolated, short, tc.isolated, tc.short)
			}
		})
	}
}
