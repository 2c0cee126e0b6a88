package overlap

import (
	"slices"
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
	build func(seqs [][]byte, k int) refIndex
}{
	{"kmer-table", func(seqs [][]byte, k int) refIndex {
		ix, err := buildKmerIndex(seqs, k)
		if err != nil {
			panic(err)
		}
		return ix
	}},
	{"suffix-array", func(seqs [][]byte, k int) refIndex { return buildSAIndex(seqs, k) }},
}

// benchSubset is one reference subset the size the D2 benchmark input
// builds (12,000 reads over four subsets): 3,000 reads, ~120 k distinct
// 16-mers, so the entries are well past the L1/L2 caches.
func benchSubset(b *testing.B) [][]byte {
	reads := benchReads(b, 3000)
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	return seqs
}

// BenchmarkSeedLookup measures seed resolution alone, one query's batch
// per op (steady-state), for each index over the same subset: "hit"
// batches every fourth k-mer of one read, as the query loop does at Step
// 4, reads in an order that revisits no key soon; "miss" batches as many
// k-mers of an unrelated genome.
func BenchmarkSeedLookup(b *testing.B) {
	seqs := benchSubset(b)
	cfg := DefaultConfig()
	var sc scratch
	sample := func(seqs [][]byte) (batches [][]probe) {
		for _, s := range seqs {
			batches = append(batches, slices.Clone(sampleSeeds(&sc, s, cfg)))
		}
		return batches
	}
	var unrelated [][]byte
	for g := randGenome(4321, 100000); len(g) >= 100; g = g[100:] {
		unrelated = append(unrelated, g[:100])
	}
	probeSets := []struct {
		name    string
		batches [][]probe
	}{
		{"hit", sample(seqs)},
		{"miss", sample(unrelated)},
	}
	for _, mode := range benchIndexes {
		ix := mode.build(seqs, cfg.K)
		for _, ps := range probeSets {
			b.Run(mode.name+"/"+ps.name, func(b *testing.B) {
				total, probes := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch := ps.batches[i%len(ps.batches)]
					ents := ix.resolve(batch, cfg.MaxOccur)
					for _, p := range batch {
						total += len(ents[p.lo:p.hi])
					}
					probes += len(batch)
				}
				b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
				if (total == 0) != (ps.name == "miss") {
					b.Fatalf("%d hits resolved", total)
				}
			})
		}
	}
}

// BenchmarkQueryLoop measures the whole per-job loop — sampling, batch
// resolve, votes, verification and in-order emission — for one 3,000-read
// query subset against one index over 3,000 tiling reads: "same" queries
// the index's own subset (a same-subset job: every pair verified from both
// sides, half the records flipped), "cross" queries a second tiling of the
// genome shifted by 20 bases (a cross-subset job).
func BenchmarkQueryLoop(b *testing.B) {
	genome := randGenome(1234, 40*3000+100)
	tiling := func(from int, first int32) readSet {
		var rs readSet
		for _, r := range tilingReads(genome[from:], 100, 40)[:3000] {
			rs.ids, rs.seqs = append(rs.ids, first+int32(len(rs.ids))), append(rs.seqs, r.Seq)
		}
		return rs
	}
	ref := tiling(0, 3000)
	cfg := DefaultConfig()
	ix, err := buildKmerIndex(ref.seqs, cfg.K)
	if err != nil {
		b.Fatal(err)
	}
	for _, job := range []struct {
		name  string
		query readSet
	}{{"same", ref}, {"cross", tiling(20, 0)}} {
		b.Run(job.name, func(b *testing.B) {
			var sc scratch
			b.ReportAllocs()
			b.ResetTimer()
			recs := 0
			for i := 0; i < b.N; i++ {
				recs = len(alignQueries(job.query, ref, ix, cfg, &sc))
			}
			if recs == 0 {
				b.Fatal("no overlaps found")
			}
			b.ReportMetric(float64(recs), "records/op")
		})
	}
}

// BenchmarkIndexBuild measures per-subset index construction, and the
// k-mer table's on a low-complexity subset of the same size whose largest
// bucket holds 20,000 entries (sorted, where the D2 subset's buckets
// nearly all stay in scatter order).
func BenchmarkIndexBuild(b *testing.B) {
	seqs := benchSubset(b)
	cfg := DefaultConfig()
	for _, mode := range benchIndexes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.build(seqs, cfg.K)
			}
		})
	}
	b.Run("low-complexity", func(b *testing.B) {
		seqs := lowComplexitySubset(4000, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buildKmerIndex(seqs, cfg.K); err != nil {
				b.Fatal(err)
			}
		}
	})
}
