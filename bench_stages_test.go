package focus

// Benchmarks for evaluation, classification and the distributed-alignment
// mode, rounding out the per-stage harness.

import (
	"runtime"
	"testing"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/eval"
	"focus/internal/simulate"
	"focus/internal/taxonomy"
)

// BenchmarkEvaluate measures reference-based assembly grading.
func BenchmarkEvaluate(b *testing.B) {
	d := benchSet(b, 1)
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		b.Fatal(err)
	}
	res, err := d.stages.Assemble(pool, 4, 2, 1)
	pool.Close()
	if err != nil {
		b.Fatal(err)
	}
	var refs []eval.Reference
	for _, g := range d.com.Genomes {
		refs = append(refs, eval.Reference{Name: g.ID, Seq: g.Seq})
	}
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		rep, err := eval.Evaluate(res.Contigs, refs, eval.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		frac = rep.GenomeFraction
	}
	b.ReportMetric(100*frac, "genome-frac-pct")
}

// BenchmarkClassifier measures taxonomy classification throughput.
func BenchmarkClassifier(b *testing.B) {
	d := benchSet(b, 2)
	var refs []taxonomy.Reference
	for _, g := range d.com.Genomes {
		refs = append(refs, taxonomy.Reference{Name: g.ID, Genus: g.Genus, Phylum: g.Phylum, Seq: g.Seq})
	}
	cls, err := taxonomy.NewClassifier(refs, 21)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range d.rs.Reads[:min(len(d.rs.Reads), 500)] {
			cls.Classify(r.Seq)
		}
	}
}

// BenchmarkHybridSweep explains the partition share of the genome_ksweep
// workload: one Stages of its input shape (one 80 kb genome at 30x)
// partitioned at k = 2 … 64, fresh per k (PartitionHybrid, what the
// benchmark's frozen replay times) against the shared bisection prefix
// Assemble uses, which runs each bisection step once per sweep.
func BenchmarkHybridSweep(b *testing.B) {
	com, err := simulate.BuildCommunity(simulate.SingleGenome("ksweep", 80000, 1))
	if err != nil {
		b.Fatal(err)
	}
	rc := simulate.PaperReadConfig(1, 30)
	rc.Seed = 1
	rs, err := simulate.SimulateReads(com, rc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Preprocess.Trim5 = rc.AdapterLen
	s, err := BuildStages(rs.Reads, cfg)
	if err != nil {
		b.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 2; k <= 64; k *= 2 {
				if _, _, err := s.PartitionHybrid(k, procs, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep := *s
			sweep.bisection = &bisectionSlot{}
			for k := 2; k <= 64; k *= 2 {
				if _, err := sweep.partitionShared(k, procs, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
