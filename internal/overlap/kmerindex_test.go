package overlap

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"focus/internal/dna"
	"focus/internal/preprocess"
	"focus/internal/simulate"
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

// hitsOf returns the occurrences resolve gave probe p on ix: the entries
// of its range under its key, mapped to the seed's strand (probe.hit).
func hitsOf(ix refIndex, ents []kentry, p probe) []seedHit {
	hs := []seedHit{}
	for _, e := range ents[p.lo:p.hi] {
		if e.key == p.key {
			hs = append(hs, p.hit(e, ix.pairLast()))
		}
	}
	return hs
}

// resolveOne resolves a one-probe batch.
func resolveOne(ix refIndex, km dna.Kmer) []seedHit {
	ps := []probe{{km: uint64(km)}}
	return hitsOf(ix, ix.resolve(ps), ps[0])
}

// plainRun is the k-mer table's answer for km by a scan of all its
// entries: no directory, no search, no batch.
func plainRun(ix *kmerIndex, km dna.Kmer) []seedHit {
	p := probe{km: uint64(km), key: uint64(km), hi: uint32(len(ix.ents))}
	if rc := revComp(p.km, ix.k); ix.canon && rc < p.km {
		p.key, p.flip = rc, true
	}
	return hitsOf(ix, ix.ents, p)
}

// maskedTable is the k-mer table of seqs, strand-canonical when paired,
// built without the k-mers that occur more than maxOccur times in seqs
// (repeatKeys).
func maskedTable(t testing.TB, seqs [][]byte, k int, paired bool, maxOccur int) *kmerIndex {
	t.Helper()
	ix, err := buildKmerIndex(seqs, k, paired, repeatKeys(seqs, k, paired, maxOccur, 0))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func byReadOff(x, y seedHit) int {
	return cmp.Or(cmp.Compare(x.read, y.read), cmp.Compare(x.off, y.off))
}

// checkBatch resolves one batch of probes on the k-mer table and on an
// oracle masked at the same bound — the suffix-array index, or the full
// table for a strand-canonical one — and holds them to each other probe by
// probe: the same occurrence set, hence the same repeat-mask decision. It
// holds the table to a scan of its own entries too: the same postings in
// the same order, from a range inside the bucket of the probe's key, which
// is km or, on a strand-canonical table, min(km, rc(km)), flipped when
// rc(km) is the smaller. A full table's postings come in (read, off)
// order.
func checkBatch(t testing.TB, kix *kmerIndex, oracle refIndex, kms []dna.Kmer, maxOccur int) {
	t.Helper()
	k := kix.k
	ps := make([]probe, len(kms))
	for i, km := range kms {
		ps[i] = probe{km: uint64(km), off: int32(i)}
	}
	ps2 := slices.Clone(ps)
	e1, e2 := kix.resolve(ps), oracle.resolve(ps2)
	for i, km := range kms {
		p := ps[i]
		if p.km != uint64(km) || p.off != int32(i) {
			t.Fatalf("k=%d probe %d: resolve rewrote the seed to %+v", k, i, p)
		}
		rc := revComp(p.km, k)
		if flip := kix.canon && rc < p.km; p.flip != flip || (flip && p.key != rc) || (!flip && p.key != p.km) {
			t.Fatalf("k=%d km=%s (canonical %v): key %#x flip %v", k, km.String(k), kix.canon, p.key, p.flip)
		}
		if b := kix.bucket(p.key); p.lo > p.hi || p.lo < kix.dir[b] || p.hi > kix.dir[b+1] {
			t.Fatalf("k=%d km=%s: range [%d,%d) outside its bucket [%d,%d)", k, km.String(k), p.lo, p.hi, kix.dir[b], kix.dir[b+1])
		}
		h1, h2 := hitsOf(kix, e1, p), hitsOf(oracle, e2, ps2[i])
		if plain := plainRun(kix, km); !slices.Equal(h1, plain) {
			t.Fatalf("k=%d km=%s maxOccur=%d: batch resolve %v, plain scan %v", k, km.String(k), maxOccur, h1, plain)
		}
		if kix.canon {
			slices.SortFunc(h1, byReadOff)
		}
		slices.SortFunc(h2, byReadOff)
		if !slices.Equal(h1, h2) {
			t.Fatalf("k=%d km=%s maxOccur=%d canonical %v: hits %v (kmer) vs %v (%T)", k, km.String(k), maxOccur, kix.canon, h1, h2, oracle)
		}
	}
}

// checkSubset is the batch-resolve property on one subset: a batch of
// every k-mer of every read (every stride-th past 512), in read order (so
// repeated seeds share the batch), then the extra probes, then the first
// probe once more, resolved on the full k-mer table and the suffix-array
// oracle with repeat masking off, at maxOccur, and at count−1, count and
// count+1 of every occurrence count the batch sees, each table built
// without its masked keys. On a strand-paired subset the strand-canonical
// table is held to both at every threshold as well, and must hold half
// the full table's entries plus one for each palindromic occurrence
// (canonicalEntries).
func checkSubset(t testing.TB, seqs [][]byte, k, maxOccur int, extra []dna.Kmer, paired bool) {
	t.Helper()
	kix := maskedTable(t, seqs, k, false, 0)
	checkDirectory(t, kix)
	if paired {
		cix := maskedTable(t, seqs, k, true, 0)
		checkDirectory(t, cix)
		if got, want := len(cix.ents), canonicalEntries(kix); got != want {
			t.Fatalf("k=%d: %d strand-canonical entries, want %d (%d full)", k, got, want, len(kix.ents))
		}
	}
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
		c := len(resolveOne(kix, km))
		caps[c-1], caps[c], caps[c+1] = true, true, true
	}
	for mo := range caps {
		full, six := maskedTable(t, seqs, k, false, mo), buildSAIndex(seqs, k, mo)
		checkDirectory(t, full)
		checkBatch(t, full, six, kms, mo)
		if paired {
			cix := maskedTable(t, seqs, k, true, mo)
			checkDirectory(t, cix)
			checkBatch(t, cix, six, kms, mo)
			checkBatch(t, cix, full, kms, mo)
		}
	}
}

// TestCanonicalIndexHalvesEntries: on a subset of the pipeline's input
// (the D2 analogue, preprocessed with AddReverse, split four ways) the
// strand-canonical table holds at most 0.51× the full table's entries,
// exactly half plus the palindromic extras, and the probes of one read of
// each strand resolve to the same occurrences on both.
func TestCanonicalIndexHalvesEntries(t *testing.T) {
	spec, err := simulate.PaperDataSet(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(2, 8)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	reads, _, err := preprocess.Run(rs.Reads, preprocess.Config{Window: 10, Step: 1, MinQuality: 12, MinLen: 40, AddReverse: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sub := splitSubsets(reads, 4)[0]
	if !sub.paired {
		t.Fatal("the preprocessed subset is not strand-paired")
	}
	full, canon := maskedTable(t, sub.seqs, cfg.K, false, 0), maskedTable(t, sub.seqs, cfg.K, true, 0)
	if n := len(canon.ents); float64(n) > 0.51*float64(len(full.ents)) || n != canonicalEntries(full) {
		t.Fatalf("%d strand-canonical entries of %d full ones (%.3f×), want %d", n, len(full.ents), float64(n)/float64(len(full.ents)), canonicalEntries(full))
	}
	var kms []dna.Kmer
	for _, s := range sub.seqs[:2] {
		dna.ForEachKmer(s, cfg.K, func(km dna.Kmer, _ int) { kms = append(kms, km) })
	}
	checkBatch(t, canon, full, kms, 0)
	full, canon = maskedTable(t, sub.seqs, cfg.K, false, cfg.MaxOccur), maskedTable(t, sub.seqs, cfg.K, true, cfg.MaxOccur)
	checkBatch(t, canon, full, kms, cfg.MaxOccur)
	t.Logf("%d reads: %d full entries, %d strand-canonical", len(sub.seqs), len(full.ents), len(canon.ents))
}

// TestRevComp: the bit-parallel reverse complement equals
// dna.Kmer.ReverseComplement's base-by-base one at every k.
func TestRevComp(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for k := 1; k <= dna.MaxK; k++ {
		for _, km := range []dna.Kmer{0, polyT(k), dna.Kmer(rng.Uint64()) & polyT(k), dna.Kmer(rng.Uint64()) & polyT(k)} {
			if got, want := revComp(uint64(km), k), uint64(km.ReverseComplement(k)); got != want {
				t.Fatalf("k=%d %s: revComp %s, want %s", k, km.String(k), dna.Kmer(got).String(k), dna.Kmer(want).String(k))
			}
		}
	}
}

// canonicalEntries is the entry count of the strand-canonical table of a
// strand-paired subset, from its full table: of each mirrored pair of
// occurrences, rc(x) at (read^1, |B|−K−off) for x at (read, off), one
// entry — but two for a palindrome, x = rc(x), both of whose occurrences
// are canonical.
func canonicalEntries(full *kmerIndex) int {
	n := len(full.ents)
	for _, e := range full.ents {
		if revComp(e.key, full.k) == e.key {
			n++
		}
	}
	return n / 2
}

// strandPairs returns the strand-paired subset of seqs: each read followed
// by its reverse complement, with '#' (which has none) read as N.
func strandPairs(seqs [][]byte) [][]byte {
	var out [][]byte
	for _, s := range seqs {
		s = bytes.ReplaceAll(s, []byte("#"), []byte("N"))
		out = append(out, s, dna.ReverseComplement(s))
	}
	return out
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
		checkSubset(t, randomSubset(rng, k, 12, 0.1), k, rng.Intn(4), absent(), false)
		low := lowComplexitySubset(1+rng.Intn(30), 1+rng.Intn(3))
		for _, s := range low[:len(low)/2] {
			s[rng.Intn(len(s))] = "N#"[rng.Intn(2)]
		}
		checkSubset(t, low, k, 1+rng.Intn(8), absent(), false)
		checkSubset(t, nil, k, 1, absent(), false)
	}
}

// TestCanonicalIndexMatchesFull is the batch-resolve property of the
// strand-canonical table (checkSubset with paired set) on strand-paired
// subsets at every k from 1 to 32, odd and even: random reads with N
// among them, palindrome-heavy low-complexity reads — (ACGT)^n and
// (AT)^n, whose k-mers at even k are mostly their own reverse
// complements — and the empty subset. Every probe's mapped hits, sorted,
// and its mask decision at count−1 / count / count+1 equal the full
// table's and the suffix array's, and the entry count is half the full
// one plus the palindromic extras.
func TestCanonicalIndexMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	palindromes := 0
	for k := 1; k <= dna.MaxK; k++ {
		absent := []dna.Kmer{0, polyT(k)}
		for i := 0; i < 20; i++ {
			absent = append(absent, dna.Kmer(rng.Uint64())&polyT(k))
		}
		checkSubset(t, strandPairs(randomSubset(rng, k, 12, 0.1)), k, rng.Intn(4), absent, true)
		var low [][]byte
		for _, unit := range []string{"ACGT", "AT", "GC", "ACGT", "AT"} {
			s := bytes.Repeat([]byte(unit), 1+(k+rng.Intn(40))/len(unit))
			s = s[rng.Intn(len(unit)):]
			if rng.Intn(3) == 0 {
				s[rng.Intn(len(s))] = 'N'
			}
			low = append(low, s)
		}
		low = strandPairs(low)
		full := maskedTable(t, low, k, false, 0)
		palindromes += 2*canonicalEntries(full) - len(full.ents)
		checkSubset(t, low, k, 1+rng.Intn(8), absent, true)
		checkSubset(t, nil, k, 1, absent, true)
	}
	if palindromes < 1000 {
		t.Fatalf("%d palindromic occurrences in the low-complexity subsets", palindromes)
	}
}

// FuzzSeedIndex holds the batch resolve to the suffix-array oracle on
// subsets the fuzzer writes: data bytes map to bases (with 'N' and '#'
// among them) and split into reads at bytes >= 0xF0; k is 1..32 and
// maxOccur any small value (<= 0 is unlimited). In paired mode each read
// is followed by its reverse complement, '#' read as N, and the
// strand-canonical table is held to the full one and the oracle too.
// checkSubset adds the count−1 / count / count+1 thresholds and a
// repeated seed.
func FuzzSeedIndex(f *testing.F) {
	f.Add([]byte{}, uint8(15), int8(1), false)
	f.Add(randGenome(81, 300), uint8(8), int8(0), false)
	f.Add(bytes.Repeat([]byte("AAAAAAAAAC\xf0"), 20), uint8(4), int8(3), false)
	f.Add([]byte("ACGTNACGTACGT#ACGTACGTACGTACGTACGTACGTACGTACGTACG\xf0NNNN\xf0ACGTACGTACGTACGTACGTACGTACGTACGTACGT"), uint8(31), int8(2), false)
	f.Add(bytes.Repeat([]byte("GATTACA"), 30), uint8(0), int8(-1), false)
	f.Add([]byte{}, uint8(15), int8(1), true)
	f.Add(randGenome(83, 300), uint8(9), int8(0), true)
	f.Add(bytes.Repeat([]byte("ACGT"), 40), uint8(7), int8(3), true)
	f.Add(bytes.Repeat([]byte("ATATATATAT\xf0ACGTNACGTACGTACGT\xf0"), 8), uint8(5), int8(4), true)
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\xf0NNNN\xf0GATTACA#GATTACA"), uint8(31), int8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, kb uint8, mo int8, paired bool) {
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
		if paired {
			seqs = strandPairs(seqs)
		}
		checkSubset(t, seqs, k, int(mo), []dna.Kmer{0, polyT(k)}, paired)
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
	if _, err := buildKmerIndex(over, 1, false, nil); err == nil || !strings.Contains(err.Error(), "overlap: reference subset") {
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
		for _, tc := range []struct {
			name        string
			capped, off refIndex
		}{
			{"kmer-table", maskedTable(t, seqs, k, false, cap), maskedTable(t, seqs, k, false, 0)},
			{"suffix-array", buildSAIndex(seqs, k, cap), buildSAIndex(seqs, k, 0)},
		} {
			if n := len(resolveOne(tc.capped, aaaa)); n != cap {
				t.Errorf("k=%d %s: exactly-at-threshold k-mer dropped (hits=%d)", k, tc.name, n)
			}
			if n := len(resolveOne(tc.capped, cccc)); n != 0 {
				t.Errorf("k=%d %s: over-threshold k-mer kept (hits=%d)", k, tc.name, n)
			}
			if n := len(resolveOne(tc.off, cccc)); n != cap+1 {
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
// entry than buckets, no more buckets than k-mers, spanning the entries
// exactly, monotone, every entry inside the bucket of its key's hash
// (kmerIndex.bucket); a bucket past sortedBucket entries
// in (key, read, off) order, a smaller one in scatter order — (read, off)
// for a full table, (pair, offset on the even read, strand) for a
// strand-canonical one, whose keys are all canonical.
func checkDirectory(t testing.TB, ix *kmerIndex) {
	t.Helper()
	bits := 64 - int(ix.dirShift)
	if bits < 0 || bits > dirMaxBits || bits > 2*ix.k || len(ix.dir) != 1<<bits+1 {
		t.Fatalf("k=%d: %d directory entries for a shift of %d", ix.k, len(ix.dir), ix.dirShift)
	}
	if ix.dir[0] != 0 || int(ix.dir[len(ix.dir)-1]) != len(ix.ents) || !slices.IsSorted(ix.dir) {
		t.Fatalf("k=%d: directory does not span the %d entries monotonically", ix.k, len(ix.ents))
	}
	for i, e := range ix.ents {
		if b := ix.bucket(e.key); i < int(ix.dir[b]) || i >= int(ix.dir[b+1]) {
			t.Fatalf("k=%d: entry %d (%#x) outside its bucket %d = [%d,%d)", ix.k, i, e.key, b, ix.dir[b], ix.dir[b+1])
		}
		if ix.canon && revComp(e.key, ix.k) < e.key {
			t.Fatalf("k=%d: entry %d (%s) is not canonical", ix.k, i, dna.Kmer(e.key).String(ix.k))
		}
	}
	scatter := func(x, y kentry) int { return byReadOff(x.hit, y.hit) }
	if ix.canon {
		evenOff := func(h seedHit) int32 {
			if h.read&1 == 0 {
				return h.off
			}
			return ix.last[h.read>>1] - h.off
		}
		scatter = func(x, y kentry) int {
			return cmp.Or(cmp.Compare(x.hit.read>>1, y.hit.read>>1), cmp.Compare(evenOff(x.hit), evenOff(y.hit)), cmp.Compare(x.hit.read, y.hit.read))
		}
	}
	for b := 0; b+1 < len(ix.dir); b++ {
		bucket := ix.ents[ix.dir[b]:ix.dir[b+1]]
		order := scatter
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
// oracle — masking included — on every k-mer of the subset, on the
// smallest and largest keys (poly-A, which hashes to bucket 0, and poly-T)
// and their absent neighbours, and on random absent k-mers, most of which
// fall in empty buckets; on the full table, and on the strand-canonical
// one of the strand-paired subset (where poly-T is looked up as poly-A,
// flipped).
func TestIndexDirectory(t *testing.T) {
	for _, paired := range []bool{false, true} {
		rng := rand.New(rand.NewSource(78))
		for _, k := range []int{4, 9, 16, dna.MaxK} {
			seqs := [][]byte{bytes.Repeat([]byte("A"), k+3), bytes.Repeat([]byte("T"), k+3)}
			for i := 0; i < 12; i++ {
				s := randGenome(int64(100*k+i), k+rng.Intn(400))
				s[rng.Intn(len(s))] = 'N'
				seqs = append(seqs, s)
			}
			if paired {
				seqs = strandPairs(seqs)
			}
			kix := maskedTable(t, seqs, k, paired, 0)
			checkDirectory(t, kix)
			if k == 4 && int(kix.dirShift) != 64-2*k {
				t.Fatalf("k=4 with %d distinct keys (paired %v): shift %d, want a bucket per 4-mer", distinctKeys(kix), paired, kix.dirShift)
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
				checkBatch(t, maskedTable(t, seqs, k, paired, maxOccur), buildSAIndex(seqs, k, maxOccur), kms, maxOccur)
			}
			if h := resolveOne(kix, 0); len(h) < 4 {
				t.Fatalf("k=%d paired %v: poly-A (bucket 0) has %d hits, want the read's 4", k, paired, len(h))
			}
			if h := resolveOne(kix, last); len(h) < 4 {
				t.Fatalf("k=%d paired %v: poly-T (the largest key) has %d hits, want the read's 4", k, paired, len(h))
			}
		}
	}
}

// TestIndexDirectoryDegenerate: an empty subset has a one-bucket directory
// and finds nothing; a subset whose keys all hash to one bucket puts every
// entry there, which is then searched like the whole table was, while
// probes elsewhere land in empty buckets. The strand-canonical table is
// held to the same on the strand-paired subset, whose other strand's
// probes are flipped into the shared bucket.
func TestIndexDirectoryDegenerate(t *testing.T) {
	for _, paired := range []bool{false, true} {
		for _, k := range []int{4, 16, dna.MaxK} {
			empty := maskedTable(t, nil, k, paired, 1)
			checkDirectory(t, empty)
			if len(empty.dir) != 2 {
				t.Fatalf("k=%d paired %v: empty subset has %d directory entries", k, paired, len(empty.dir))
			}
			for _, km := range []dna.Kmer{0, 1, polyT(k)} {
				if h := resolveOne(empty, km); len(h) != 0 {
					t.Fatalf("k=%d paired %v: empty subset answered %v", k, paired, h)
				}
			}
		}
	}
	const k = 16
	for _, paired := range []bool{false, true} {
		// 40 reads of one k-mer each, twelve keys of one 5-bit bucket, and
		// 256 more keys of that bucket, absent.
		rng := rand.New(rand.NewSource(79))
		keys := collidingKmers(rng, k, 5, 12+256)
		var seqs [][]byte
		for i := 0; i < 40; i++ {
			seqs = append(seqs, keys[i%12].AppendBytes(nil, k))
		}
		if paired {
			seqs = strandPairs(seqs)
		}
		kix := maskedTable(t, seqs, k, paired, 0)
		checkDirectory(t, kix)
		full := 0
		for b := 0; b+1 < len(kix.dir); b++ {
			if kix.dir[b] != kix.dir[b+1] {
				full++
			}
		}
		if kix.dirShift != 64-5 || full != 1 || distinctKeys(kix) < 8 {
			t.Fatalf("paired %v: %d keys in %d of %d buckets, want several keys in exactly one of 32", paired, distinctKeys(kix), full, len(kix.dir)-1)
		}
		var kms []dna.Kmer
		for _, s := range seqs {
			dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { kms = append(kms, km) })
		}
		kms = append(kms, keys...) // the shared bucket: present and absent keys
		for i := 0; i < 100; i++ { // empty buckets
			kms = append(kms, dna.Kmer(rng.Uint64()>>32))
		}
		for _, maxOccur := range []int{0, 1} {
			checkBatch(t, maskedTable(t, seqs, k, paired, maxOccur), buildSAIndex(seqs, k, maxOccur), kms, maxOccur)
		}
	}
}

// collidingKmers returns n distinct canonical k-mers (km <= rc(km)) that
// share one bucket of a directory of dirBits bits.
func collidingKmers(rng *rand.Rand, k, dirBits, n int) []dna.Kmer {
	ix := &kmerIndex{k: k, dirShift: uint(64 - dirBits)}
	var kms []dna.Kmer
	for len(kms) < n {
		km := dna.Kmer(rng.Uint64()) & polyT(k)
		if revComp(uint64(km), k) < uint64(km) || slices.Contains(kms, km) {
			continue
		}
		if len(kms) == 0 || ix.bucket(uint64(km)) == ix.bucket(uint64(kms[0])) {
			kms = append(kms, km)
		}
	}
	return kms
}

// collidingSubset is a subset of reads of n k-mers each (k = 16), joined
// by N, drawn from eight canonical keys that share one bucket of the
// directory the subset gets, strand-paired or not: one bucket of all
// reads·n entries over interleaved keys, each key's postings spread over
// many reads and offsets.
func collidingSubset(reads, n int) [][]byte {
	const k = 16
	rng := rand.New(rand.NewSource(80))
	bound := reads * ((n-1)*(k+1) + 1) // indexKmers' count, N-bearing windows included
	keys := collidingKmers(rng, k, min(bits.Len(uint(bound)/2), dirMaxBits), 8)
	seqs := make([][]byte, reads)
	for i := range seqs {
		for j := 0; j < n; j++ {
			if j > 0 {
				seqs[i] = append(seqs[i], 'N')
			}
			seqs[i] = keys[rng.Intn(len(keys))].AppendBytes(seqs[i], k)
		}
	}
	return seqs
}

// lowComplexitySubset is a subset whose k-mers (k = 16) are few and
// repeated: every read is n copies of GATTACAGATTA plus four random bases,
// so the k-mers at offsets 0, 16, 32, ... of every read are about 256
// distinct keys over thousands of entries, each key's postings spread over
// many reads and offsets.
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
// interleaved keys (collidingSubset) comes out sorted by key with every
// key's postings in (read, off) order, and probes agree with the
// suffix-array oracle — on the full table, and on the strand-canonical one
// of the strand-paired subset, twice the reads, half of them entered.
func TestIndexLowComplexityBucket(t *testing.T) {
	const k = 16
	for _, paired := range []bool{false, true} {
		seqs := collidingSubset(1000, 3)
		if paired {
			seqs = strandPairs(seqs)
		}
		kix := maskedTable(t, seqs, k, paired, 0)
		checkDirectory(t, kix)
		largest := 0
		for b := 0; b+1 < len(kix.dir); b++ {
			largest = max(largest, int(kix.dir[b+1]-kix.dir[b]))
		}
		if largest < 2000 {
			t.Fatalf("paired %v: largest bucket holds %d entries, want thousands", paired, largest)
		}
		var kms []dna.Kmer
		for _, s := range seqs[:50] {
			dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { kms = append(kms, km) })
		}
		for _, maxOccur := range []int{0, 64} {
			checkBatch(t, maskedTable(t, seqs, k, paired, maxOccur), buildSAIndex(seqs, k, maxOccur), kms, maxOccur)
		}
	}
}
