package overlap

import (
	"testing"

	"focus/internal/dna"
)

// benchReads builds a deterministic read set with genuine overlap
// structure: tiling reads over a random genome, so every consecutive
// pair overlaps and the index sees realistic seed multiplicity.
func benchReads(b *testing.B, n int) []dna.Read {
	b.Helper()
	genome := randGenome(1234, 40*n+100)
	reads := tilingReads(genome, 100, 40)
	if len(reads) < n {
		b.Fatalf("only %d reads generated, want %d", len(reads), n)
	}
	return reads[:n]
}

func benchmarkFindOverlaps(b *testing.B, cfg Config) {
	reads := benchReads(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := FindOverlaps(reads, 4, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("no overlaps found")
		}
	}
}

// BenchmarkFindOverlaps measures the whole overlap stage on the tiling
// read set.
func BenchmarkFindOverlaps(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	benchmarkFindOverlaps(b, cfg)
}

// benchIndexes names the production seed index and its oracle for the
// micro-benchmarks below (the k-mer table's build and probe costs are
// explained against the suffix array's).
var benchIndexes = []struct {
	name  string
	build func(seqs [][]byte, ids []int32, k int) refIndex
}{
	{"kmer-table", func(seqs [][]byte, ids []int32, k int) refIndex { return buildKmerIndex(seqs, ids, k) }},
	{"suffix-array", func(seqs [][]byte, ids []int32, k int) refIndex { return buildSAIndex(seqs, ids, k) }},
}

// BenchmarkSeedLookup measures one seed probe (index hit resolution only,
// steady-state) for each index over the same subset.
func BenchmarkSeedLookup(b *testing.B) {
	reads := benchReads(b, 256)
	cfg := DefaultConfig()
	ids := make([]int32, len(reads))
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		ids[i] = int32(i)
		seqs[i] = r.Seq
	}
	// Probe k-mers drawn from the reads themselves so most probes hit.
	var probes []dna.Kmer
	for _, r := range reads[:32] {
		it := dna.NewKmerIter(r.Seq, cfg.K)
		for {
			km, _, ok := it.Next()
			if !ok {
				break
			}
			probes = append(probes, km)
		}
	}
	for _, mode := range benchIndexes {
		b.Run(mode.name, func(b *testing.B) {
			ix := mode.build(seqs, ids, cfg.K)
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, _ := ix.seedHits(probes[i%len(probes)], cfg.MaxOccur)
				total += len(hits)
			}
			if total == 0 {
				b.Fatal("no hits resolved")
			}
		})
	}
}

// BenchmarkIndexBuild measures per-subset index construction.
func BenchmarkIndexBuild(b *testing.B) {
	reads := benchReads(b, 256)
	cfg := DefaultConfig()
	ids := make([]int32, len(reads))
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		ids[i] = int32(i)
		seqs[i] = r.Seq
	}
	for _, mode := range benchIndexes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := mode.build(seqs, ids, cfg.K); ix.numReads() != len(reads) {
					b.Fatal("bad index")
				}
			}
		})
	}
}
