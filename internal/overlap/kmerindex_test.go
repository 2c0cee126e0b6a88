package overlap

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"focus/internal/dna"
)

// rcReadSet builds a randomized read set with the geometries the overlap
// stage must classify: tiling overlaps, reverse-complement pairs and
// contained reads.
func rcReadSet(seed int64, genomeLen int) []dna.Read {
	rng := rand.New(rand.NewSource(seed))
	genome := randGenome(seed, genomeLen)
	reads := tilingReads(genome, 100, 40)
	// Reverse-complement half of the tiling reads (preprocessing adds RC
	// mates in the real pipeline, so both orientations co-occur).
	for i := range reads {
		if rng.Intn(2) == 0 {
			reads[i].Seq = dna.ReverseComplement(reads[i].Seq)
		}
	}
	// Contained reads: short fragments cut from random positions.
	for i := 0; i < len(reads)/4; i++ {
		pos := rng.Intn(genomeLen - 70)
		frag := append([]byte(nil), genome[pos:pos+60+rng.Intn(10)]...)
		if rng.Intn(2) == 0 {
			dna.ReverseComplementInPlace(frag)
		}
		reads = append(reads, dna.Read{ID: "frag", Seq: frag})
	}
	return reads
}

// TestIndexingEquivalence pins the production seed index to its oracle:
// FindOverlaps over the packed k-mer table (at workers 1/2/8) returns
// byte-identical, sorted records to the same query loop over the
// suffix-array index, on randomized read sets (including
// reverse-complement pairs and containments), across subset counts,
// seeding modes and seed lengths k = 4, 9, 16 and 32.
func TestIndexingEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"minimizer", func(c *Config) { c.Seeding = SeedMinimizer }},
		{"maxoccur8", func(c *Config) { c.MaxOccur = 8 }},
		{"step1", func(c *Config) { c.Step = 1 }},
		{"k4", func(c *Config) { c.K = 4 }},
		{"k9", func(c *Config) { c.K = 9 }},
		{"k32", func(c *Config) { c.K = dna.MaxK }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(60); seed < 64; seed++ {
				reads := rcReadSet(seed, 1800)
				for _, subsets := range []int{1, 3} {
					cfg := testConfig()
					tc.mut(&cfg)
					want, _ := oracleOverlaps(reads, subsets, cfg, false)
					if len(want) == 0 {
						t.Fatalf("seed=%d: no overlaps found at all", seed)
					}
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						got, err := FindOverlaps(reads, subsets, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("seed=%d subsets=%d workers=%d: %d records vs %d (suffix array)", seed, subsets, workers, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("seed=%d subsets=%d workers=%d record %d: %+v vs %+v (suffix array)", seed, subsets, workers, i, got[i], want[i])
							}
						}
						if !sort.SliceIsSorted(got, func(i, j int) bool {
							if got[i].A != got[j].A {
								return got[i].A < got[j].A
							}
							return got[i].B < got[j].B
						}) {
							t.Fatalf("seed=%d workers=%d: records not sorted", seed, workers)
						}
					}
				}
			}
		})
	}
}

// TestCountCandidatesMatchesOracle: the candidate-generation total the
// end-to-end benchmark times equals the oracle's at any worker count, and
// counting verifies nothing (no records come back).
func TestCountCandidatesMatchesOracle(t *testing.T) {
	for seed := int64(5); seed < 8; seed++ {
		reads := rcReadSet(seed, 1600)
		for _, subsets := range []int{1, 3} {
			for _, mut := range []func(*Config){
				func(*Config) {},
				func(c *Config) { c.MaxOccur = 8 },
				func(c *Config) { c.Seeding = SeedMinimizer },
			} {
				cfg := testConfig()
				mut(&cfg)
				recs, want := oracleOverlaps(reads, subsets, cfg, true)
				if want == 0 || len(recs) != 0 {
					t.Fatalf("seed=%d subsets=%d: oracle counted %d candidates, %d records", seed, subsets, want, len(recs))
				}
				for _, workers := range []int{1, 8} {
					cfg.Workers = workers
					got, err := CountCandidates(reads, subsets, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed=%d subsets=%d workers=%d: %d candidates vs %d (suffix array)", seed, subsets, workers, got, want)
					}
				}
			}
		}
	}
}

// TestFindOverlapsCancel: a pre-canceled context aborts the sweep with
// the context's cause.
func TestFindOverlapsCancel(t *testing.T) {
	reads := rcReadSet(9, 1200)
	cause := errors.New("overlap test cancel")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := FindOverlapsCtx(ctx, reads, 3, testConfig()); !errors.Is(err, cause) {
		t.Fatalf("err=%v, want cause", err)
	}
}

// checkSeedHits holds one probe of the k-mer table to the suffix-array
// oracle (same occurrence set, same repeat-mask decision) and to a plain
// binary search over the table's own keys (same postings, same order).
func checkSeedHits(t *testing.T, kix *kmerIndex, six refIndex, km dna.Kmer, maxOccur int) {
	t.Helper()
	k := kix.k
	h1, m1 := kix.seedHits(km, maxOccur)
	h2, m2 := six.seedHits(km, maxOccur)
	if m1 != m2 {
		t.Fatalf("k=%d km=%s: masked %v (kmer) vs %v (sa)", k, km.String(k), m1, m2)
	}
	var plain []seedHit
	if i := sort.Search(len(kix.keys), func(i int) bool { return kix.keys[i] >= uint64(km) }); i < len(kix.keys) && kix.keys[i] == uint64(km) {
		if plain = kix.posts[kix.start[i]:kix.start[i+1]]; dna.RepeatMasked(len(plain), maxOccur) {
			plain = nil
		}
	}
	if !slices.Equal(h1, plain) {
		t.Fatalf("k=%d km=%s: directory lookup %v, plain binary search %v", k, km.String(k), h1, plain)
	}
	s1 := append([]seedHit(nil), h1...)
	s2 := append([]seedHit(nil), h2...)
	byReadOff := func(x, y seedHit) int {
		if x.read != y.read {
			return int(x.read) - int(y.read)
		}
		return int(x.off) - int(y.off)
	}
	slices.SortFunc(s1, byReadOff)
	slices.SortFunc(s2, byReadOff)
	if !slices.Equal(s1, s2) {
		t.Fatalf("k=%d km=%s: hits %v (kmer) vs %v (sa)", k, km.String(k), s1, s2)
	}
}

// TestSeedHitsEquivalence compares the k-mer table with the suffix-array
// oracle at the probe level: identical occurrence sets and identical
// repeat-mask decisions for every k-mer of the indexed reads, including
// reads containing Ns, at k = 4, 9, 16 and 32 and random k in between.
func TestSeedHitsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 36; trial++ {
		k := []int{4, 9, 16, dna.MaxK}[trial%4]
		if trial >= 16 {
			k = 4 + rng.Intn(dna.MaxK-3)
		}
		numReads := 1 + rng.Intn(12)
		seqs := make([][]byte, numReads)
		ids := make([]int32, numReads)
		for i := range seqs {
			n := k/2 + rng.Intn(60) // some reads shorter than k
			s := make([]byte, n)
			for j := range s {
				if rng.Intn(20) == 0 {
					s[j] = 'N' // exercise invalid-window skipping
				} else {
					s[j] = "ACGT"[rng.Intn(4)]
				}
			}
			seqs[i] = s
			ids[i] = int32(100 + i)
		}
		kix := buildKmerIndex(seqs, ids, k)
		six := buildSAIndex(seqs, ids, k)
		maxOccur := rng.Intn(4) // 0 = unlimited
		probe := func(km dna.Kmer) { checkSeedHits(t, kix, six, km, maxOccur) }
		for _, s := range seqs {
			it := dna.NewKmerIter(s, k)
			for {
				km, _, ok := it.Next()
				if !ok {
					break
				}
				probe(km)
			}
		}
		// Random probes too (mostly absent k-mers).
		for i := 0; i < 50; i++ {
			probe(dna.Kmer(rng.Uint64() & (1<<(2*uint(k)) - 1)))
		}
	}
}

// TestRepeatThresholdBoundary pins the shared occurrence-cap semantics
// (dna.RepeatMasked) at the boundary for both seed structures, at k = 4,
// 9, 16 and 32: a k-mer occurring exactly MaxOccur times is kept, one more
// occurrence masks it, and cap <= 0 never masks.
func TestRepeatThresholdBoundary(t *testing.T) {
	const cap = 3
	if dna.RepeatMasked(cap, cap) || !dna.RepeatMasked(cap+1, cap) || dna.RepeatMasked(1<<20, 0) || dna.RepeatMasked(1<<20, -1) {
		t.Fatal("dna.RepeatMasked boundary semantics changed")
	}
	for _, k := range []int{4, 9, 16, dna.MaxK} {
		// Poly-A occurs exactly cap times, poly-C cap+1 times, spread over
		// unique-tail reads so each occurrence is a distinct posting.
		polyA, polyC := bytes.Repeat([]byte("A"), k), bytes.Repeat([]byte("C"), k)
		var seqs [][]byte
		for _, tail := range []string{"GGTT", "TTGG", "GTGT"} {
			seqs = append(seqs, append(slices.Clone(polyA), tail...))
		}
		for _, tail := range []string{"GGTT", "TTGG", "GTGT", "TGTG"} {
			seqs = append(seqs, append(slices.Clone(polyC), tail...))
		}
		ids := localIDs(len(seqs))
		aaaa, _ := dna.PackKmer(polyA, k)
		cccc, _ := dna.PackKmer(polyC, k)
		for _, tc := range []struct {
			name string
			ix   refIndex
		}{
			{"kmer-table", buildKmerIndex(seqs, ids, k)},
			{"suffix-array", buildSAIndex(seqs, ids, k)},
		} {
			probe := func(km dna.Kmer, mo int) (int, bool) {
				h, m := tc.ix.seedHits(km, mo)
				return len(h), m
			}
			if n, m := probe(aaaa, cap); m || n != cap {
				t.Errorf("k=%d %s: exactly-at-threshold k-mer dropped (hits=%d masked=%v)", k, tc.name, n, m)
			}
			if _, m := probe(cccc, cap); !m {
				t.Errorf("k=%d %s: over-threshold k-mer kept", k, tc.name)
			}
			if n, m := probe(cccc, 0); m || n != cap+1 {
				t.Errorf("k=%d %s: cap=0 masked (hits=%d masked=%v)", k, tc.name, n, m)
			}
		}
	}
}

// localIDs numbers n subset reads 0..n-1.
func localIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// polyT is the largest k-mer, the last key of the last bucket.
func polyT(k int) dna.Kmer { return dna.Kmer(math.MaxUint64 >> (64 - 2*uint(k))) }

// checkDirectory asserts the bucket directory's invariants: one more entry
// than buckets, spanning keys exactly, monotone, every key inside the
// bucket its top bits name.
func checkDirectory(t *testing.T, ix *kmerIndex) {
	t.Helper()
	bits := 2*ix.k - int(ix.dirShift)
	if bits < 0 || bits > dirMaxBits || len(ix.dir) != 1<<bits+1 {
		t.Fatalf("k=%d: %d directory entries for a shift of %d", ix.k, len(ix.dir), ix.dirShift)
	}
	if ix.dir[0] != 0 || int(ix.dir[len(ix.dir)-1]) != len(ix.keys) || !slices.IsSorted(ix.dir) {
		t.Fatalf("k=%d: directory does not span the %d keys monotonically", ix.k, len(ix.keys))
	}
	for i, key := range ix.keys {
		if b := key >> ix.dirShift; i < int(ix.dir[b]) || i >= int(ix.dir[b+1]) {
			t.Fatalf("k=%d: key %d (%#x) outside its bucket %d = [%d,%d)", ix.k, i, key, b, ix.dir[b], ix.dir[b+1])
		}
	}
}

// TestIndexDirectory: for k = 4 (a k-mer has fewer bits than the directory
// would take), 9, 16 and dna.MaxK (a k-mer fills all 64 key bits), the
// directory lookup equals the plain binary search and the suffix-array
// oracle — masking included — on every k-mer of the subset, on the keys of
// the first and last bucket (poly-A, poly-T) and their absent neighbours,
// and on random absent k-mers, most of which fall in empty buckets.
func TestIndexDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, k := range []int{4, 9, 16, dna.MaxK} {
		seqs := [][]byte{bytes.Repeat([]byte("A"), k+3), bytes.Repeat([]byte("T"), k+3)}
		for i := 0; i < 12; i++ {
			s := randGenome(int64(100*k+i), k+rng.Intn(400))
			s[rng.Intn(len(s))] = 'N'
			seqs = append(seqs, s)
		}
		ids := localIDs(len(seqs))
		kix, six := buildKmerIndex(seqs, ids, k), buildSAIndex(seqs, ids, k)
		checkDirectory(t, kix)
		if k == 4 && kix.dirShift != 0 {
			t.Fatalf("k=4 with %d distinct keys: shift %d, want one bucket per 4-mer", len(kix.keys), kix.dirShift)
		}
		last := polyT(k)
		for _, maxOccur := range []int{0, 1, 3} {
			for _, s := range seqs {
				dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { checkSeedHits(t, kix, six, km, maxOccur) })
			}
			for _, km := range []dna.Kmer{0, 1, last - 1, last} {
				checkSeedHits(t, kix, six, km, maxOccur)
			}
			for i := 0; i < 200; i++ {
				checkSeedHits(t, kix, six, dna.Kmer(rng.Uint64())&last, maxOccur)
			}
		}
		if h, _ := kix.seedHits(0, 0); len(h) < 4 {
			t.Fatalf("k=%d: poly-A (first bucket) has %d hits, want the read's 4", k, len(h))
		}
		if h, _ := kix.seedHits(last, 0); len(h) < 4 {
			t.Fatalf("k=%d: poly-T (last bucket) has %d hits, want the read's 4", k, len(h))
		}
	}
}

// TestIndexDirectoryDegenerate: an empty subset has a one-bucket directory
// and finds nothing; a subset whose k-mers all share their leading bases
// puts every key in one bucket, which is then searched like the whole
// table was, while probes elsewhere land in empty buckets.
func TestIndexDirectoryDegenerate(t *testing.T) {
	for _, k := range []int{4, 16, dna.MaxK} {
		empty := buildKmerIndex(nil, nil, k)
		checkDirectory(t, empty)
		if len(empty.dir) != 2 {
			t.Fatalf("k=%d: empty subset has %d directory entries", k, len(empty.dir))
		}
		for _, km := range []dna.Kmer{0, 1, polyT(k)} {
			if h, m := empty.seedHits(km, 1); h != nil || m {
				t.Fatalf("k=%d: empty subset answered %v %v", k, h, m)
			}
		}
	}
	const k = 16
	rng := rand.New(rand.NewSource(79))
	var seqs [][]byte
	for i := 0; i < 40; i++ { // one k-mer per read: GATTACAGATTA + 4 random bases
		seqs = append(seqs, append([]byte("GATTACAGATTA"), randGenome(int64(i), 4)...))
	}
	ids := localIDs(len(seqs))
	kix, six := buildKmerIndex(seqs, ids, k), buildSAIndex(seqs, ids, k)
	checkDirectory(t, kix)
	full := 0
	for b := 0; b+1 < len(kix.dir); b++ {
		if kix.dir[b] != kix.dir[b+1] {
			full++
		}
	}
	if full != 1 || len(kix.keys) < 8 {
		t.Fatalf("%d keys in %d buckets, want several keys in exactly one", len(kix.keys), full)
	}
	for _, maxOccur := range []int{0, 1} {
		for _, s := range seqs {
			dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { checkSeedHits(t, kix, six, km, maxOccur) })
		}
		prefix, _ := dna.PackKmer([]byte("GATTACAGATTAAAAA"), k)
		for i := 0; i < 256; i++ { // the shared bucket: present and absent suffixes
			checkSeedHits(t, kix, six, prefix+dna.Kmer(i), maxOccur)
		}
		for i := 0; i < 100; i++ { // empty buckets
			checkSeedHits(t, kix, six, dna.Kmer(rng.Uint64()>>32), maxOccur)
		}
	}
}

// lowComplexitySubset is a subset whose k-mers (k = 16) mostly share their
// leading bases: every read is n copies of GATTACAGATTA plus four random
// bases, so the k-mers at offsets 0, 16, 32, ... of every read fall in one
// directory bucket, about 256 distinct keys interleaved over thousands of
// entries, each key's postings spread over many reads and offsets.
func lowComplexitySubset(reads, n int) [][]byte {
	rng := rand.New(rand.NewSource(80))
	seqs := make([][]byte, reads)
	for i := range seqs {
		for j := 0; j < n; j++ {
			seqs[i] = append(seqs[i], "GATTACAGATTA"...)
			seqs[i] = append(seqs[i], randGenome(rng.Int63(), 4)...)
		}
	}
	return seqs
}

// TestIndexLowComplexityBucket: a bucket of thousands of entries over
// interleaved keys (past the insertion-sort cutoff) still comes out sorted
// by key with every key's postings in (read, off) order, and probes agree
// with the suffix-array oracle.
func TestIndexLowComplexityBucket(t *testing.T) {
	const k = 16
	seqs := lowComplexitySubset(1000, 3)
	ids := localIDs(len(seqs))
	kix, six := buildKmerIndex(seqs, ids, k), buildSAIndex(seqs, ids, k)
	checkDirectory(t, kix)
	largest := 0
	for b := 0; b+1 < len(kix.dir); b++ {
		lo, hi := kix.dir[b], kix.dir[b+1]
		largest = max(largest, int(kix.start[hi]-kix.start[lo]))
	}
	if largest < 2000 {
		t.Fatalf("largest bucket holds %d postings, want thousands", largest)
	}
	if !slices.IsSorted(kix.keys) {
		t.Fatal("keys not sorted")
	}
	for i := range kix.keys {
		if ps := kix.posts[kix.start[i]:kix.start[i+1]]; !slices.IsSortedFunc(ps, func(x, y seedHit) int {
			return cmp.Or(cmp.Compare(x.read, y.read), cmp.Compare(x.off, y.off))
		}) {
			t.Fatalf("key %d: postings out of (read, off) order: %v", i, ps)
		}
	}
	for _, s := range seqs[:50] {
		dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { checkSeedHits(t, kix, six, km, 0) })
	}
}
