package focus

// Benchmarks for evaluation, classification and the distributed-alignment
// mode, rounding out the per-stage harness.

import (
	"testing"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/eval"
	"focus/internal/overlap"
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

// BenchmarkDistributedAlignment contrasts local goroutine alignment with
// the RPC-distributed mode on the same reads.
func BenchmarkDistributedAlignment(b *testing.B) {
	d := benchSet(b, 1)
	cfg := overlap.DefaultConfig()
	reads := d.stages.Reads
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := overlap.FindOverlaps(reads, 4, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rpc", func(b *testing.B) {
		pool, err := dist.NewLocalPool(2, assembly.NewService)
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		for i := 0; i < b.N; i++ {
			if _, err := overlap.FindOverlapsDistributedCtx(nil, pool, reads, 4, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
