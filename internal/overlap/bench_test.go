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

// benchSubset is one reference subset the size the D2 benchmark input
// builds (12,000 reads over four subsets): 3,000 reads, ~120 k distinct
// 16-mers, so the key array is well past the L1/L2 caches.
func benchSubset(b *testing.B) (seqs [][]byte, ids []int32) {
	reads := benchReads(b, 3000)
	seqs = make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	return seqs, localIDs(len(seqs))
}

// BenchmarkSeedLookup measures one seed probe (index hit resolution only,
// steady-state) for each index over the same subset: "hit" probes every
// fourth k-mer of every read, as the query loop does at Step 4, in an order
// that revisits no key soon; "miss" probes k-mers of an unrelated genome.
func BenchmarkSeedLookup(b *testing.B) {
	seqs, ids := benchSubset(b)
	cfg := DefaultConfig()
	sample := func(seqs [][]byte) (probes []dna.Kmer) {
		for _, s := range seqs {
			dna.ForEachKmer(s, cfg.K, func(km dna.Kmer, off int) {
				if off%cfg.Step == 0 {
					probes = append(probes, km)
				}
			})
		}
		return probes
	}
	probeSets := []struct {
		name   string
		probes []dna.Kmer
	}{
		{"hit", sample(seqs)},
		{"miss", sample([][]byte{randGenome(4321, 100000)})},
	}
	for _, mode := range benchIndexes {
		ix := mode.build(seqs, ids, cfg.K)
		for _, ps := range probeSets {
			b.Run(mode.name+"/"+ps.name, func(b *testing.B) {
				total := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hits, _ := ix.seedHits(ps.probes[i%len(ps.probes)], cfg.MaxOccur)
					total += len(hits)
				}
				if (total == 0) != (ps.name == "miss") {
					b.Fatalf("%d hits resolved", total)
				}
			})
		}
	}
}

// BenchmarkIndexBuild measures per-subset index construction, and the
// k-mer table's on a low-complexity subset of the same size whose largest
// bucket holds 20,000 entries (an insertion sort there would be quadratic).
func BenchmarkIndexBuild(b *testing.B) {
	seqs, ids := benchSubset(b)
	cfg := DefaultConfig()
	for _, mode := range benchIndexes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ix := mode.build(seqs, ids, cfg.K); ix.numReads() != len(seqs) {
					b.Fatal("bad index")
				}
			}
		})
	}
	b.Run("low-complexity", func(b *testing.B) {
		seqs := lowComplexitySubset(4000, 5)
		ids := localIDs(len(seqs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildKmerIndex(seqs, ids, cfg.K)
		}
	})
}
