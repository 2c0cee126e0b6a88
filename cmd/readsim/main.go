// Command readsim generates synthetic metagenomic communities and
// Illumina-like reads — the stand-in for the paper's NCBI SRA data sets
// (see DESIGN.md §2). It writes reads as FASTQ and, optionally, the
// reference genomes as FASTA for downstream classification.
package main

import (
	"flag"
	"fmt"
	"os"

	"focus/internal/dna"
	"focus/internal/simulate"
)

func main() {
	var (
		dataset  = flag.Int("dataset", 1, "paper data set analogue to simulate (1-3)")
		scale    = flag.Float64("scale", 1.0, "genome length scale factor")
		coverage = flag.Float64("coverage", 12, "mean read coverage")
		out      = flag.String("out", "reads.fastq", "output FASTQ path")
		refOut   = flag.String("refs", "", "optional output FASTA path for reference genomes")
		single   = flag.Int("single", 0, "instead of a community, simulate one genome of this length")
		seed     = flag.Int64("seed", 42, "seed for -single mode")
	)
	flag.Parse()

	var spec simulate.CommunitySpec
	var err error
	if *single > 0 {
		spec = simulate.SingleGenome("single", *single, *seed)
	} else {
		spec, err = simulate.PaperDataSet(*dataset, *scale)
		if err != nil {
			fatal(err)
		}
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.PaperReadConfig(*dataset, *coverage))
	if err != nil {
		fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := dna.WriteFASTQ(f, rs.Reads); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d reads (%d bases, %.1fx coverage of %d genome bases) to %s\n",
		len(rs.Reads), rs.TotalBases(), float64(rs.TotalBases())/float64(com.TotalBases()), com.TotalBases(), *out)

	if *refOut != "" {
		var refs []dna.Read
		for _, g := range com.Genomes {
			refs = append(refs, dna.Read{ID: fmt.Sprintf("%s genus=%s phylum=%s", g.ID, g.Genus, g.Phylum), Seq: g.Seq})
		}
		rf, err := os.Create(*refOut)
		if err != nil {
			fatal(err)
		}
		defer rf.Close()
		if err := dna.WriteFASTA(rf, refs, 80); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d reference genomes to %s\n", len(refs), *refOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "readsim:", err)
	os.Exit(1)
}
