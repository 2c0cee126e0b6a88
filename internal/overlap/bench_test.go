package overlap

import (
	"runtime"
	"slices"
	"testing"

	"focus/internal/dna"
	"focus/internal/preprocess"
	"focus/internal/simulate"
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

// bytesPerRecord starts counting a benchmark's allocations; the function
// it returns reports them per output record, given one iteration's count.
func bytesPerRecord(b *testing.B) func(records int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	return func(records int) {
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.TotalAlloc-start)/float64(b.N)/float64(records), "B/record")
	}
}

func benchmarkFindOverlaps(b *testing.B, cfg Config) {
	reads := benchReads(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	report := bytesPerRecord(b)
	recs := 0
	for i := 0; i < b.N; i++ {
		out, err := FindOverlaps(reads, 4, cfg)
		if err != nil {
			b.Fatal(err)
		}
		recs = len(out)
	}
	if recs == 0 {
		b.Fatal("no overlaps found")
	}
	report(recs)
}

// BenchmarkFindOverlaps measures the whole overlap stage on the tiling
// read set, and its allocations per output record.
func BenchmarkFindOverlaps(b *testing.B) {
	benchmarkFindOverlaps(b, DefaultConfig())
}

// benchIndex names one seed index build for the micro-benchmarks below.
type benchIndex struct {
	name  string
	build func(seqs [][]byte, k int) refIndex
}

// kmerTable builds the k-mer table, strand-canonical when paired, without
// the k-mers past the default repeat mask.
func kmerTable(paired bool) func(seqs [][]byte, k int) refIndex {
	return func(seqs [][]byte, k int) refIndex {
		ix, err := buildKmerIndex(seqs, k, paired, repeatKeys(seqs, k, paired, DefaultConfig().MaxOccur, 0))
		if err != nil {
			panic(err)
		}
		return ix
	}
}

// benchIndexes names the production seed index and its oracle (the k-mer
// table's build and probe costs are explained against the suffix
// array's); pairedIndexes the k-mer table's two layouts on a
// strand-paired subset (the canonical one's against the full one's).
var (
	benchIndexes = []benchIndex{
		{"kmer-table", kmerTable(false)},
		{"suffix-array", func(seqs [][]byte, k int) refIndex { return buildSAIndex(seqs, k, DefaultConfig().MaxOccur) }},
	}
	pairedIndexes = []benchIndex{
		{"paired/full", kmerTable(false)},
		{"paired/canonical", kmerTable(true)},
	}
)

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

// pairedBenchSubset is benchSubset's size strand-paired, as preprocessing
// with AddReverse makes every subset: 1,500 tiling reads, each followed by
// its reverse complement.
func pairedBenchSubset(b *testing.B) [][]byte {
	var seqs [][]byte
	for _, r := range benchReads(b, 1500) {
		seqs = append(seqs, r.Seq, dna.ReverseComplement(r.Seq))
	}
	return seqs
}

// BenchmarkSeedLookup measures seed resolution alone, one query's batch
// per op (steady-state), for each index over the same subset: "hit"
// batches every fourth k-mer of one read, as the query loop does at Step
// 4, reads in an order that revisits no key soon; "miss" batches as many
// k-mers of an unrelated genome. The "paired/" runs take the strand-paired
// subset and walk each range as the vote loop does, skipping other keys
// and mapping each hit through probe.hit, so the strand-canonical table's
// flips show in its time.
func BenchmarkSeedLookup(b *testing.B) {
	benchmarkSeedLookup(b, benchSubset(b), benchIndexes, false)
	benchmarkSeedLookup(b, pairedBenchSubset(b), pairedIndexes, true)
}

func benchmarkSeedLookup(b *testing.B, seqs [][]byte, indexes []benchIndex, walk bool) {
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
	for _, mode := range indexes {
		ix := mode.build(seqs, cfg.K)
		last := ix.pairLast()
		for _, ps := range probeSets {
			b.Run(mode.name+"/"+ps.name, func(b *testing.B) {
				total, probes := 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch := ps.batches[i%len(ps.batches)]
					ents := ix.resolve(batch)
					for _, p := range batch {
						if !walk {
							total += len(ents[p.lo:p.hi])
							continue
						}
						for _, e := range ents[p.lo:p.hi] {
							if e.key == p.key {
								total += int(p.hit(e, last).off&1) + 1
							}
						}
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
// resolve, votes, verification and in-order emission, and the copy out of
// the job's pieces a worker makes, with its allocations per output
// record — for one 3,000-read
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
	ix := kmerTable(false)(ref.seqs, cfg.K)
	for _, job := range []struct {
		name  string
		query readSet
	}{{"same", ref}, {"cross", tiling(20, 0)}} {
		b.Run(job.name, func(b *testing.B) {
			var sc scratch
			b.ReportAllocs()
			b.ResetTimer()
			report := bytesPerRecord(b)
			recs := 0
			for i := 0; i < b.N; i++ {
				out, err := alignQueries(job.query, ref, ix, cfg, &sc)
				if err != nil {
					b.Fatal(err)
				}
				recs = len(out)
			}
			if recs == 0 {
				b.Fatal("no overlaps found")
			}
			report(recs)
			b.ReportMetric(float64(recs), "records/op")
		})
	}
}

// BenchmarkStrandMirror explains the strand-mirror saving on one
// same-subset job over a strand-paired subset of 3,000 reads (1,500
// tiling reads, each followed by its reverse complement): "mirror" lets
// every even query answer for its odd one, "all-queries" runs each query.
// The records are identical.
func BenchmarkStrandMirror(b *testing.B) {
	rs := readSet{seqs: pairedBenchSubset(b)}
	for i := range rs.seqs {
		rs.ids = append(rs.ids, int32(i))
	}
	cfg := DefaultConfig()
	for _, mirror := range []bool{true, false} {
		name := map[bool]string{true: "mirror", false: "all-queries"}[mirror]
		b.Run(name, func(b *testing.B) {
			q := rs
			q.paired = mirror
			ix := kmerTable(mirror)(q.seqs, cfg.K)
			var sc scratch
			b.ReportAllocs()
			b.ResetTimer()
			recs := 0
			for i := 0; i < b.N; i++ {
				out, err := alignQueries(q, q, ix, cfg, &sc)
				if err != nil {
					b.Fatal(err)
				}
				recs = len(out)
			}
			b.ReportMetric(float64(recs), "records/op")
		})
	}
}

// BenchmarkIndexBuild measures per-subset index construction, the k-mer
// table's two layouts on the strand-paired subset of the same size (with
// their entry counts), and the k-mer table's on a low-complexity subset
// of the same size whose one non-empty bucket holds 20,000 entries
// (sorted, where the D2 subset's buckets nearly all stay in scatter
// order).
func BenchmarkIndexBuild(b *testing.B) {
	seqs, paired := benchSubset(b), pairedBenchSubset(b)
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
	for _, mode := range pairedIndexes {
		b.Run(mode.name, func(b *testing.B) {
			var ix refIndex
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix = mode.build(paired, cfg.K)
			}
			b.ReportMetric(float64(len(ix.(*kmerIndex).ents)), "entries")
		})
	}
	b.Run("low-complexity", func(b *testing.B) {
		seqs := collidingSubset(4000, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buildKmerIndex(seqs, cfg.K, false, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlignRefReplyWire explains meta_tcp's wire_mb: it encodes and
// decodes, as they ship, the four AlignRef replies of the meta_tcp-shaped
// input (the D2 analogue at 0.7, coverage 8, seed 1, the pipeline's
// preprocessing with Trim5 = 8, 4 subsets on a pool of 2), and reports the
// bytes and the encode + decode time per shipped record.
func BenchmarkAlignRefReplyWire(b *testing.B) {
	spec, err := simulate.PaperDataSet(2, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		b.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(2, 8)
	rcfg.Seed = 1
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		b.Fatal(err)
	}
	reads, _, err := preprocess.Run(rs.Reads, preprocess.Config{Window: 10, Step: 1, MinQuality: 12, MinLen: 40, AddReverse: true, Trim5: 8})
	if err != nil {
		b.Fatal(err)
	}
	subs := splitSubsets(reads, 4)
	masked := repeatKeys(readSeqs(reads), DefaultConfig().K, subs[0].paired, DefaultConfig().MaxOccur, 0)
	bounds := make([]int32, len(subs)+1)
	for s, sub := range subs {
		bounds[s+1] = bounds[s] + int32(len(sub.ids))
	}
	var replies []*AlignRefReply
	records, size := 0, 0
	for _, j := range refJobs(4, 2) {
		r := &AlignRefReply{}
		if err := AlignRef(j.args(subs, bounds, subs[0].paired, DefaultConfig(), masked), r); err != nil {
			b.Fatal(err)
		}
		for _, l := range r.Lists {
			records += len(l)
		}
		size += len(r.AppendTo(nil))
		replies = append(replies, r)
	}
	got := AlignRefReply{Lengths: readLengths(reads)}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range replies {
			buf = r.AppendTo(buf[:0])
			if err := got.DecodeFrom(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(size)/float64(records), "B/record")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	b.ReportMetric(float64(records), "records")
}
