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
	"strings"
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
// sampling steps, repeat masks and seed lengths k = 4, 9, 16 and 32.
func TestIndexingEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
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
						got, _, err := findOverlaps(nil, reads, subsets, cfg, workers, false, true)
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
			} {
				cfg := testConfig()
				mut(&cfg)
				recs, want := oracleOverlaps(reads, subsets, cfg, true)
				if want == 0 || len(recs) != 0 {
					t.Fatalf("seed=%d subsets=%d: oracle counted %d candidates, %d records", seed, subsets, want, len(recs))
				}
				for _, workers := range []int{1, 2, 8} {
					_, got, err := findOverlaps(nil, reads, subsets, cfg, workers, true, true)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed=%d subsets=%d workers=%d: %d candidates vs %d (suffix array)", seed, subsets, workers, got, want)
					}
				}
				if got, err := CountCandidates(reads, subsets, cfg); err != nil || got != want {
					t.Fatalf("seed=%d subsets=%d: CountCandidates = %d, %v; want %d", seed, subsets, got, err, want)
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

// hitsOf returns the occurrences resolve gave probe p: the entries of its
// range under its key.
func hitsOf(ents []kentry, p probe) []seedHit {
	hs := []seedHit{}
	for _, e := range ents[p.lo:p.hi] {
		if e.key == p.km {
			hs = append(hs, e.hit)
		}
	}
	return hs
}

// resolveOne resolves a one-probe batch.
func resolveOne(ix refIndex, km dna.Kmer, maxOccur int) []seedHit {
	ps := []probe{{km: uint64(km)}}
	return hitsOf(ix.resolve(ps, maxOccur), ps[0])
}

// plainRun is the k-mer table's answer for km by a scan of all its
// entries, masked by dna.RepeatMasked: no directory, no search, no batch.
func plainRun(ix *kmerIndex, km dna.Kmer, maxOccur int) []seedHit {
	hs := hitsOf(ix.ents, probe{km: uint64(km), hi: uint32(len(ix.ents))})
	if dna.RepeatMasked(len(hs), maxOccur) {
		return []seedHit{}
	}
	return hs
}

func byReadOff(x, y seedHit) int {
	return cmp.Or(cmp.Compare(x.read, y.read), cmp.Compare(x.off, y.off))
}

// checkBatch resolves one batch of probes on the k-mer table and on the
// suffix-array oracle and holds them to each other probe by probe — the
// same occurrence set, hence the same repeat-mask decision — and the
// table to a scan of its own entries: the same postings in the same,
// (read, off), order, from a range inside the probe's bucket.
func checkBatch(t testing.TB, kix *kmerIndex, six *saIndex, kms []dna.Kmer, maxOccur int) {
	t.Helper()
	k := kix.k
	ps := make([]probe, len(kms))
	for i, km := range kms {
		ps[i] = probe{km: uint64(km), off: int32(i)}
	}
	ps2 := slices.Clone(ps)
	e1, e2 := kix.resolve(ps, maxOccur), six.resolve(ps2, maxOccur)
	for i, km := range kms {
		p := ps[i]
		if p.km != uint64(km) || p.off != int32(i) {
			t.Fatalf("k=%d probe %d: resolve rewrote the seed to %+v", k, i, p)
		}
		if b := p.km >> kix.dirShift; p.lo > p.hi || p.lo < kix.dir[b] || p.hi > kix.dir[b+1] {
			t.Fatalf("k=%d km=%s: range [%d,%d) outside its bucket [%d,%d)", k, km.String(k), p.lo, p.hi, kix.dir[b], kix.dir[b+1])
		}
		h1, h2 := hitsOf(e1, p), hitsOf(e2, ps2[i])
		if plain := plainRun(kix, km, maxOccur); !slices.Equal(h1, plain) {
			t.Fatalf("k=%d km=%s maxOccur=%d: batch resolve %v, plain scan %v", k, km.String(k), maxOccur, h1, plain)
		}
		slices.SortFunc(h2, byReadOff)
		if !slices.Equal(h1, h2) {
			t.Fatalf("k=%d km=%s maxOccur=%d: hits %v (kmer) vs %v (sa)", k, km.String(k), maxOccur, h1, h2)
		}
	}
}

// checkSubset is the batch-resolve property on one subset: a batch of
// every k-mer of every read (every stride-th past 512), in read order (so
// repeated seeds share the batch), then the extra probes, then the first
// probe once more, resolved on the k-mer table and the suffix-array
// oracle with repeat masking off, at maxOccur, and at count−1, count and
// count+1 of every occurrence count the batch sees.
func checkSubset(t testing.TB, seqs [][]byte, k, maxOccur int, extra []dna.Kmer) {
	t.Helper()
	kix, err := buildKmerIndex(seqs, k)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, kix)
	six := buildSAIndex(seqs, k)
	var kms []dna.Kmer
	for _, s := range seqs {
		dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { kms = append(kms, km) })
	}
	// At most ~512 probes: the oracle's cost grows with batch × occurrences.
	if stride := len(kms)/512 + 1; stride > 1 {
		sampled := kms[:0]
		for i := 0; i < len(kms); i += stride {
			sampled = append(sampled, kms[i])
		}
		kms = sampled
	}
	kms = append(kms, extra...)
	if len(kms) > 0 {
		kms = append(kms, kms[0])
	}
	caps := map[int]bool{0: true, maxOccur: true}
	for _, km := range kms {
		c := len(resolveOne(kix, km, 0))
		caps[c-1], caps[c], caps[c+1] = true, true, true
	}
	for mo := range caps {
		checkBatch(t, kix, six, kms, mo)
	}
}

// randomSubset draws up to maxReads reads over ACGT with the given rate of
// 'N' and '#' bytes, some shorter than k.
func randomSubset(rng *rand.Rand, k, maxReads int, badRate float64) [][]byte {
	seqs := make([][]byte, 1+rng.Intn(maxReads))
	for i := range seqs {
		s := make([]byte, k/2+rng.Intn(60))
		for j := range s {
			switch {
			case rng.Float64() < badRate/2:
				s[j] = 'N'
			case rng.Float64() < badRate/2:
				s[j] = '#'
			default:
				s[j] = "ACGT"[rng.Intn(4)]
			}
		}
		seqs[i] = s
	}
	return seqs
}

// TestSeedHitsEquivalence is the batch-resolve property over random
// subsets, reads with 'N' and '#' among them, and low-complexity subsets
// (few distinct k-mers, long runs), at every k from 1 to 32, and over an
// empty subset: the k-mer table resolves every batch exactly as the
// suffix-array oracle and a plain scan do, at the mask thresholds either
// side of every occurrence count, through both bucket kinds.
func TestSeedHitsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for k := 1; k <= dna.MaxK; k++ {
		absent := func() (kms []dna.Kmer) { // mostly absent k-mers
			for i := 0; i < 20; i++ {
				kms = append(kms, dna.Kmer(rng.Uint64())&polyT(k))
			}
			return kms
		}
		checkSubset(t, randomSubset(rng, k, 12, 0.1), k, rng.Intn(4), absent())
		low := lowComplexitySubset(1+rng.Intn(30), 1+rng.Intn(3))
		for _, s := range low[:len(low)/2] {
			s[rng.Intn(len(s))] = "N#"[rng.Intn(2)]
		}
		checkSubset(t, low, k, 1+rng.Intn(8), absent())
		checkSubset(t, nil, k, 1, absent())
	}
}

// FuzzSeedIndex holds the batch resolve to the suffix-array oracle on
// subsets the fuzzer writes: data bytes map to bases (with 'N' and '#'
// among them) and split into reads at bytes >= 0xF0; k is 1..32 and
// maxOccur any small value (<= 0 is unlimited). checkSubset adds the
// count−1 / count / count+1 thresholds and a repeated seed.
func FuzzSeedIndex(f *testing.F) {
	f.Add([]byte{}, uint8(15), int8(1))
	f.Add(randGenome(81, 300), uint8(8), int8(0))
	f.Add(bytes.Repeat([]byte("AAAAAAAAAC\xf0"), 20), uint8(4), int8(3))
	f.Add([]byte("ACGTNACGTACGT#ACGTACGTACGTACGTACGTACGTACGTACGTACG\xf0NNNN\xf0ACGTACGTACGTACGTACGTACGTACGTACGTACGT"), uint8(31), int8(2))
	f.Add(bytes.Repeat([]byte("GATTACA"), 30), uint8(0), int8(-1))
	f.Fuzz(func(t *testing.T, data []byte, kb uint8, mo int8) {
		if len(data) > 1024 {
			return
		}
		k := 1 + int(kb)%dna.MaxK
		var seqs [][]byte
		read := []byte{}
		for _, b := range data {
			if b >= 0xF0 {
				seqs, read = append(seqs, read), []byte{}
				continue
			}
			read = append(read, "ACGTACGTACGTACN#"[b&15])
		}
		seqs = append(seqs, read)
		checkSubset(t, seqs, k, int(mo), []dna.Kmer{0, polyT(k)})
	})
}

// TestIndexKmerBound: a subset past 2^31−1 k-mers is refused — by the
// bound check, by FindOverlaps and by AlignRef — before the table is
// allocated, and one exactly at the bound passes the check. The reads all
// share one 1 MiB buffer, so the test allocates no more than that.
func TestIndexKmerBound(t *testing.T) {
	const mib = 1 << 20
	buf := make([]byte, mib)
	for i := range buf {
		buf[i] = "ACGT"[i%4]
	}
	at := make([][]byte, maxIndexKmers/mib+1) // 2048 reads: 2^31 bases
	for i := range at {
		at[i] = buf
	}
	at[len(at)-1] = buf[:mib-1] // 2^31 − 1 k-mers at k = 1
	if n, err := indexKmers(at, 1); err != nil || n != maxIndexKmers {
		t.Fatalf("subset at the bound: %d k-mers, err %v", n, err)
	}
	over := append(slices.Clone(at[:len(at)-1]), buf)
	if _, err := indexKmers(over, 1); err == nil {
		t.Fatal("subset one k-mer past the bound accepted")
	}
	if _, err := buildKmerIndex(over, 1); err == nil || !strings.Contains(err.Error(), "overlap: reference subset") {
		t.Fatalf("buildKmerIndex: err %v", err)
	}
	reads := make([]dna.Read, len(over))
	for i, s := range over {
		reads[i] = dna.Read{ID: "r", Seq: s}
	}
	cfg := testConfig()
	cfg.K = 1
	if _, err := FindOverlaps(reads, 1, cfg); err == nil || !strings.Contains(err.Error(), "k-mers") {
		t.Fatalf("FindOverlaps: err %v", err)
	}
	args := &AlignRefArgs{Queries: []int32{0, 1}, RefLo: 1, RefHi: int32(1 + len(over)), Seqs: append([][]byte{buf[:100]}, over...), Cfg: cfg}
	if _, err := alignLists(args); err == nil || !strings.Contains(err.Error(), "k-mers") {
		t.Fatalf("AlignRef: err %v", err)
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
		aaaa, _ := dna.PackKmer(polyA, k)
		cccc, _ := dna.PackKmer(polyC, k)
		kix, err := buildKmerIndex(seqs, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			ix   refIndex
		}{
			{"kmer-table", kix},
			{"suffix-array", buildSAIndex(seqs, k)},
		} {
			if n := len(resolveOne(tc.ix, aaaa, cap)); n != cap {
				t.Errorf("k=%d %s: exactly-at-threshold k-mer dropped (hits=%d)", k, tc.name, n)
			}
			if n := len(resolveOne(tc.ix, cccc, cap)); n != 0 {
				t.Errorf("k=%d %s: over-threshold k-mer kept (hits=%d)", k, tc.name, n)
			}
			if n := len(resolveOne(tc.ix, cccc, 0)); n != cap+1 {
				t.Errorf("k=%d %s: cap=0 masked (hits=%d)", k, tc.name, n)
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

// checkDirectory asserts the index's invariants: one more directory
// entry than buckets, spanning the entries exactly, monotone, every entry
// inside the bucket its top bits name; a bucket past sortedBucket entries
// in (key, read, off) order, a smaller one in scatter, (read, off), order.
func checkDirectory(t testing.TB, ix *kmerIndex) {
	t.Helper()
	bits := 2*ix.k - int(ix.dirShift)
	if bits < 0 || bits > dirMaxBits || len(ix.dir) != 1<<bits+1 {
		t.Fatalf("k=%d: %d directory entries for a shift of %d", ix.k, len(ix.dir), ix.dirShift)
	}
	if ix.dir[0] != 0 || int(ix.dir[len(ix.dir)-1]) != len(ix.ents) || !slices.IsSorted(ix.dir) {
		t.Fatalf("k=%d: directory does not span the %d entries monotonically", ix.k, len(ix.ents))
	}
	for i, e := range ix.ents {
		if b := e.key >> ix.dirShift; i < int(ix.dir[b]) || i >= int(ix.dir[b+1]) {
			t.Fatalf("k=%d: entry %d (%#x) outside its bucket %d = [%d,%d)", ix.k, i, e.key, b, ix.dir[b], ix.dir[b+1])
		}
	}
	for b := 0; b+1 < len(ix.dir); b++ {
		bucket := ix.ents[ix.dir[b]:ix.dir[b+1]]
		order := func(x, y kentry) int { return byReadOff(x.hit, y.hit) }
		if len(bucket) > sortedBucket {
			order = func(x, y kentry) int { return cmp.Or(cmp.Compare(x.key, y.key), byReadOff(x.hit, y.hit)) }
		}
		if !slices.IsSortedFunc(bucket, order) {
			t.Fatalf("k=%d: bucket %d of %d entries out of order", ix.k, b, len(bucket))
		}
	}
}

// distinctKeys counts the index's distinct k-mers.
func distinctKeys(ix *kmerIndex) int {
	keys := map[uint64]bool{}
	for _, e := range ix.ents {
		keys[e.key] = true
	}
	return len(keys)
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
		kix, err := buildKmerIndex(seqs, k)
		if err != nil {
			t.Fatal(err)
		}
		six := buildSAIndex(seqs, k)
		checkDirectory(t, kix)
		if k == 4 && kix.dirShift != 0 {
			t.Fatalf("k=4 with %d distinct keys: shift %d, want one bucket per 4-mer", distinctKeys(kix), kix.dirShift)
		}
		last := polyT(k)
		var kms []dna.Kmer
		for _, s := range seqs {
			dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { kms = append(kms, km) })
		}
		kms = append(kms, 0, 1, last-1, last)
		for i := 0; i < 200; i++ {
			kms = append(kms, dna.Kmer(rng.Uint64())&last)
		}
		for _, maxOccur := range []int{0, 1, 3} {
			checkBatch(t, kix, six, kms, maxOccur)
		}
		if h := resolveOne(kix, 0, 0); len(h) < 4 {
			t.Fatalf("k=%d: poly-A (first bucket) has %d hits, want the read's 4", k, len(h))
		}
		if h := resolveOne(kix, last, 0); len(h) < 4 {
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
		empty, err := buildKmerIndex(nil, k)
		if err != nil {
			t.Fatal(err)
		}
		checkDirectory(t, empty)
		if len(empty.dir) != 2 {
			t.Fatalf("k=%d: empty subset has %d directory entries", k, len(empty.dir))
		}
		for _, km := range []dna.Kmer{0, 1, polyT(k)} {
			if h := resolveOne(empty, km, 1); len(h) != 0 {
				t.Fatalf("k=%d: empty subset answered %v", k, h)
			}
		}
	}
	const k = 16
	rng := rand.New(rand.NewSource(79))
	var seqs [][]byte
	for i := 0; i < 40; i++ { // one k-mer per read: GATTACAGATTA + 4 random bases
		seqs = append(seqs, append([]byte("GATTACAGATTA"), randGenome(int64(i), 4)...))
	}
	kix, err := buildKmerIndex(seqs, k)
	if err != nil {
		t.Fatal(err)
	}
	six := buildSAIndex(seqs, k)
	checkDirectory(t, kix)
	full := 0
	for b := 0; b+1 < len(kix.dir); b++ {
		if kix.dir[b] != kix.dir[b+1] {
			full++
		}
	}
	if full != 1 || distinctKeys(kix) < 8 {
		t.Fatalf("%d keys in %d buckets, want several keys in exactly one", distinctKeys(kix), full)
	}
	var kms []dna.Kmer
	for _, s := range seqs {
		dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { kms = append(kms, km) })
	}
	prefix, _ := dna.PackKmer([]byte("GATTACAGATTAAAAA"), k)
	for i := 0; i < 256; i++ { // the shared bucket: present and absent suffixes
		kms = append(kms, prefix+dna.Kmer(i))
	}
	for i := 0; i < 100; i++ { // empty buckets
		kms = append(kms, dna.Kmer(rng.Uint64()>>32))
	}
	for _, maxOccur := range []int{0, 1} {
		checkBatch(t, kix, six, kms, maxOccur)
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
// interleaved keys comes out sorted by key with every key's postings in
// (read, off) order, and probes agree with the suffix-array oracle.
func TestIndexLowComplexityBucket(t *testing.T) {
	const k = 16
	seqs := lowComplexitySubset(1000, 3)
	kix, err := buildKmerIndex(seqs, k)
	if err != nil {
		t.Fatal(err)
	}
	six := buildSAIndex(seqs, k)
	checkDirectory(t, kix)
	largest := 0
	for b := 0; b+1 < len(kix.dir); b++ {
		largest = max(largest, int(kix.dir[b+1]-kix.dir[b]))
	}
	if largest < 2000 {
		t.Fatalf("largest bucket holds %d entries, want thousands", largest)
	}
	var kms []dna.Kmer
	for _, s := range seqs[:50] {
		dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { kms = append(kms, km) })
	}
	for _, maxOccur := range []int{0, 64} {
		checkBatch(t, kix, six, kms, maxOccur)
	}
}
