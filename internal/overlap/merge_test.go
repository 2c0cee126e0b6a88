package overlap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"focus/internal/align"
	"focus/internal/preprocess"
	"focus/internal/simulate"
)

// recKey identifies one overlap relation in the oracle below.
type recKey struct {
	a, b int32
	kind align.Kind
}

// mergeRecordsOracle is the map-and-sort merge the stage used before the
// per-job sort + interleave: it takes raw (unsorted, duplicated) lists in
// any order and keeps the most credible record per (A, B, Kind).
func mergeRecordsOracle(lists [][]Record) []Record {
	best := make(map[recKey]int)
	var out []Record
	for _, rs := range lists {
		for _, rec := range rs {
			key := recKey{rec.A, rec.B, rec.Kind}
			if i, dup := best[key]; dup {
				if moreCredible(rec, out[i]) {
					out[i] = rec
				}
				continue
			}
			best[key] = len(out)
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Diag < out[j].Diag
	})
	return out
}

// recordOrder is the order of a job's output: (A, B, Kind), most credible
// first within a key. It is total on distinct records.
func recordOrder(x, y Record) int {
	if c := compareKey(x, y); c != 0 {
		return c
	}
	switch {
	case moreCredible(x, y):
		return -1
	case moreCredible(y, x):
		return 1
	}
	return 0
}

// sortDedupe is the comparison-sort oracle of the per-job record order
// (the stage's own sort before in-order emission): sort one job's records
// by recordOrder and keep the first record of every key, in place.
func sortDedupe(recs []Record) []Record {
	slices.SortFunc(recs, recordOrder)
	return slices.CompactFunc(recs, func(x, y Record) bool { return compareKey(x, y) == 0 })
}

// emitJob runs a job's emissions through the production path (stage,
// sortByB per query, jobRecords) on sc. An emission is a verified overlap
// as the query loop produces it: from the query's point of view (A is the
// query, B the reference read), not yet canonical. The emissions must come
// in ascending query order, one per (query, reference read), with query
// ids among the n consecutive ids from lo: what the loop guarantees.
func emitJob(sc *scratch, ems []Record, lo int32, n int) []Record {
	sc.records, sc.flipped = sc.records[:0], sc.flipped[:0]
	first := 0
	for i, em := range ems {
		if i > 0 && em.A != ems[i-1].A {
			sortByB(sc.records[first:])
			first = len(sc.records)
		}
		sc.stage(em)
	}
	sortByB(sc.records[first:])
	return sc.jobRecords(lo, n)
}

// sortJob runs the production per-job emission on a fresh scratch.
func sortJob(ems []Record, lo int32, n int) []Record {
	return emitJob(new(scratch), ems, lo, n)
}

// TestSortDedupeKeepsDistinctKinds: a pair reported with both a
// suffix-prefix overlap and a containment — one from each side of a
// same-subset job — keeps both, in an order independent of which side saw
// which, in the oracle and in the production emission.
func TestSortDedupeKeepsDistinctKinds(t *testing.T) {
	sp := Record{A: 1, B: 2, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95, Diag: 40}
	ct := Record{A: 1, B: 2, Kind: align.KindAContainsB, Len: 80, Identity: 0.92, Diag: 10}
	for _, ems := range [][]Record{{sp, ct.Flip()}, {ct, sp.Flip()}} {
		if got := sortJob(ems, 0, 3); !slices.Equal(got, []Record{sp, ct}) {
			t.Fatalf("got %+v, want both Kinds in Kind order", got)
		}
	}
	for _, in := range [][]Record{{sp, ct}, {ct, sp}} {
		if got := sortDedupe(in); !slices.Equal(got, []Record{sp, ct}) {
			t.Fatalf("oracle: got %+v, want both Kinds in Kind order", got)
		}
	}
}

// TestSortDedupePicksMostCredibleDuplicate: true duplicates — the same
// (A, B, Kind) verified from both sides in a same-subset job — collapse to
// the higher-identity record regardless of which side found which.
func TestSortDedupePicksMostCredibleDuplicate(t *testing.T) {
	weak := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 55, Identity: 0.91, Diag: 45}
	strong := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.97, Diag: 40}
	for _, ems := range [][]Record{{weak, strong.Flip()}, {strong, weak.Flip()}} {
		if got := sortJob(ems, 2, 6); !slices.Equal(got, []Record{strong}) {
			t.Fatalf("kept %+v, want only the higher-identity %+v", got, strong)
		}
	}
	for _, in := range [][]Record{{weak, strong}, {strong, weak}} {
		if got := sortDedupe(in); !slices.Equal(got, []Record{strong}) {
			t.Fatalf("oracle kept %+v, want only the higher-identity %+v", got, strong)
		}
	}
}

// randomEmissions draws one job's emissions in loop order: queries lo ..
// lo+n-1 ascending, each with distinct reference reads in random order —
// a later subset's for a cross-subset job, the other queries for a
// same-subset one — from value ranges small enough that pairs verified
// from both sides, several Kinds per pair and equal-credibility ties are
// all common.
func randomEmissions(rng *rand.Rand, lo int32, n int, same bool) []Record {
	var ems []Record
	per := []int{0, 1, 2, 10, 40}[rng.Intn(5)]
	for q := lo; q < lo+int32(n); q++ {
		var refs []int32
		if same {
			for g := lo; g < lo+int32(n); g++ {
				if g != q {
					refs = append(refs, g)
				}
			}
		} else {
			for g := lo + int32(n); g < lo+int32(n)+int32(per)+20; g++ {
				refs = append(refs, g)
			}
		}
		rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
		for _, g := range refs[:min(len(refs), rng.Intn(per+1))] {
			ems = append(ems, Record{
				A: q, B: g,
				Kind:     align.Kind(1 + rng.Intn(4)),
				Len:      int32(50 + rng.Intn(2)),
				Identity: []float32{0.9, 0.95}[rng.Intn(2)],
				Diag:     int32(rng.Intn(3) - 1),
			})
		}
	}
	return ems
}

// canonical returns the emissions as canonical (A < B) records.
func canonical(ems []Record) []Record {
	recs := make([]Record, len(ems))
	for i, em := range ems {
		if recs[i] = em; em.A > em.B {
			recs[i] = em.Flip()
		}
	}
	return recs
}

// TestSortRecordsMatchesOracle: the in-order emission equals the
// comparison sort on randomized jobs — cross-subset jobs and same-subset
// ones whose pairs are verified from both sides (flipped, so A is
// whichever read is smaller), query runs from empty to longer than the
// insertion-sort cutoff, and duplicates that tie on identity, on identity
// and length, or on every field — and on empty and one-record jobs, one
// scratch serving every job.
func TestSortRecordsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var sc scratch
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		lo := int32(rng.Intn(50))
		same := rng.Intn(2) == 0
		ems := randomEmissions(rng, lo, n, same)
		want := sortDedupe(canonical(ems))
		if got := emitJob(&sc, ems, lo, n); !slices.Equal(got, want) {
			t.Fatalf("trial %d (ids %d..%d, same subset %v):\n got %+v\nwant %+v\n raw %+v", trial, lo, lo+int32(n)-1, same, got, want, ems)
		}
	}
}

// randomJobLists draws raw per-job record lists with the geometry the
// stage produces — job (q, r) only holds pairs with A in subset q and B in
// subset r, A < B — from value ranges small enough that duplicate keys,
// several Kinds per pair and equal-credibility ties are all common.
func randomJobLists(rng *rand.Rand, numReads, subsets int) ([]pairJob, [][]Record) {
	lo := func(s int) int { return s * numReads / subsets }
	jobs := subsetPairs(subsets)
	raw := make([][]Record, len(jobs))
	for t, j := range jobs {
		nq, nr := lo(j.q+1)-lo(j.q), lo(j.r+1)-lo(j.r)
		if nq == 0 || nr == 0 || (j.q == j.r && nq < 2) {
			continue
		}
		for n := []int{0, 1, 5, 40}[rng.Intn(4)]; n > 0; n-- {
			a, b := lo(j.q)+rng.Intn(nq), lo(j.r)+rng.Intn(nr)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			raw[t] = append(raw[t], Record{
				A: int32(a), B: int32(b),
				Kind:     align.Kind(1 + rng.Intn(4)),
				Len:      int32(50 + rng.Intn(2)),
				Identity: []float32{0.9, 0.95}[rng.Intn(2)],
				Diag:     int32(rng.Intn(3) - 1),
			})
		}
	}
	return jobs, raw
}

// TestMergeRecordsMatchesMapOracle: the linear interleave of per-job lists
// sorted and deduplicated (the order TestSortRecordsMatchesOracle pins the
// emission to) equals the map-and-sort merge of the raw lists.
func TestMergeRecordsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		subsets := 1 + rng.Intn(5)
		numReads := rng.Intn(12)
		jobs, raw := randomJobLists(rng, numReads, subsets)
		lists := make([][]Record, len(raw))
		for t := range jobs {
			lists[t] = sortDedupe(slices.Clone(raw[t]))
		}
		got, err := mergeRecords(jobs, lists)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := mergeRecordsOracle(raw); !slices.Equal(got, want) {
			t.Fatalf("trial %d (subsets=%d):\n got %+v\nwant %+v\n raw %+v", trial, subsets, got, want, raw)
		}
	}
}

// TestMergeRecordsRejectsUnsortedList: a list that is not sorted and
// deduplicated (what a worker built before the per-job sort returns) is
// an error naming the job, never a silently mis-merged result.
func TestMergeRecordsRejectsUnsortedList(t *testing.T) {
	rec := func(a, b int32) Record {
		return Record{A: a, B: b, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95}
	}
	jobs := subsetPairs(2) // reads 0..3 in two subsets: (0,0) (0,1) (1,1)
	good := [][]Record{{rec(0, 1)}, {rec(0, 2), rec(0, 3), rec(1, 2)}, {rec(2, 3)}}
	if got, err := mergeRecords(jobs, good); err != nil || len(got) != 5 {
		t.Fatalf("sorted lists: %d records, err %v", len(got), err)
	}
	for name, bad := range map[string][]Record{
		"unsorted":     {rec(0, 3), rec(0, 2), rec(1, 2)},
		"unsorted A":   {rec(1, 2), rec(0, 2), rec(0, 3)},
		"not deduped":  {rec(0, 2), rec(0, 2), rec(1, 2)},
		"foreign pair": {rec(0, 1), rec(0, 2)}, // (0,1) belongs to job (0,0)
	} {
		_, err := mergeRecords(jobs, [][]Record{good[0], bad, good[2]})
		if err == nil || !strings.Contains(err.Error(), "overlap: job (0,1): records out of order") {
			t.Errorf("%s: err = %v, want the job (0,1) order error", name, err)
		}
	}
}

// TestFindOverlapsRecordDigest pins the stage's output on the D2
// analogue, byte for byte, at seed lengths k = 4, 9, 16 and 32 (one bucket
// per 4-mer, a directory narrower than the k-mer, the default, a k-mer
// filling the key) and at 1, 3 and 4 subsets (every job a same-subset
// one; uneven subset sizes; the default), to digests computed at the
// commit before the DP-free verdicts and the map-free merge (4 subsets,
// k = 16), before the identity bound, the counting sort and the
// scatter-built index (4 subsets, k = 4, 9, 32) and before the batch
// resolve and the in-order emission (1 and 3 subsets): none may change a
// record. (At one subset every 4-mer is repeat-masked: no records.)
func TestFindOverlapsRecordDigest(t *testing.T) {
	spec, err := simulate.PaperDataSet(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(2, 8)
	rcfg.AdapterLen = 0 // the stage sees preprocessed reads
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		subsets, k int
		want       string
	}{
		{1, 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{1, 9, "a59aada2def15b2d9885294ebe38a85c303d64c59604dffb8f0be16543c225a6"},
		{1, 16, "5713d15add8d2abe40fb017b61c9bc3346f35a9036dd40f5dffeb3167dedce61"},
		{1, 32, "ca31fba133abf9798c831a4ed518fc97e487bb6c0868241f3ec590968e5b963e"},
		{3, 4, "ed12803f6f1e08838ac944935c4dfad532b59beec8e43656ea634f1b7b72b519"},
		{3, 9, "49770c029c4726d6c189051aab20ff57fd214305bcdb3c513e808d10a86d3a13"},
		{3, 16, "168b73e807af64c1b0a5361ba9fbc0e216a5f9dc3e86e08e3b9150f8aec1911e"},
		{3, 32, "cc8bf60a4cbfae9334a38f71fa0a23b57682360bfd8621cf3a2a72341710e0b9"},
		{4, 4, "2ae2a4286f697a0e1872a5b1cd748dd88975c0a654fa6081e32f55c5b0024d46"},
		{4, 9, "f239163f95dcef81c10e81a86a5b09a6ef7c62297e9c636e09c193df0bf64705"},
		{4, 16, "f5f98bada2449b650a209f4a471fe843985d9022429bfa1bdc23a129ad185673"},
		{4, 32, "426eb4ad125465f4e00b20667647c3107b726cc51906e5a7009b2fcb61079c17"},
	} {
		cfg := testConfig()
		cfg.K = tc.k
		recs, err := FindOverlaps(rs.Reads, tc.subsets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [21]byte
		for _, r := range recs {
			binary.LittleEndian.PutUint32(buf[0:], uint32(r.A))
			binary.LittleEndian.PutUint32(buf[4:], uint32(r.B))
			buf[8] = byte(r.Kind)
			binary.LittleEndian.PutUint32(buf[9:], uint32(r.Len))
			binary.LittleEndian.PutUint32(buf[13:], math.Float32bits(r.Identity))
			binary.LittleEndian.PutUint32(buf[17:], uint32(r.Diag))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Fatalf("subsets=%d k=%d: %d records, digest %s, want %s", tc.subsets, tc.k, len(recs), got, tc.want)
		}
	}
}

// TestFindOverlapsPairedRecordDigest is TestFindOverlapsRecordDigest on the
// input the pipeline actually feeds the stage: the D2 analogue after
// preprocess.Run with AddReverse, so read 2i+1 is the reverse complement of
// read 2i, with quality-trimmed lengths on and off the seed grid. Digests
// were computed before the stage derived strand mirrors, at k = 9 and 16
// and 1, 3, 4 and 7 subsets: the 2,400 reads split 3 and 4 ways on even
// bounds, 7 ways on three odd ones (i·n/7), which a pair-aligned split
// moves by one read.
func TestFindOverlapsPairedRecordDigest(t *testing.T) {
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
	for _, tc := range []struct {
		subsets, k int
		want       string
	}{
		{1, 9, "4276f50209cc620bc2b774a414f138be70f8c2d358a54b55628576c94c3e173d"},
		{1, 16, "e0bd059e617d40c2d2eadef422eb1c0b1e467288387a6d020bb91b474b04cb96"},
		{3, 9, "b4879baf3ec6a049edea8861707cacc09ea6f952ee5d80020ff59c44ec6bd3b7"},
		{3, 16, "36a87aaeeaa95e716d7cf5b8c5eb06df8d03ef13760b8effe6dc018cb15e31fe"},
		{4, 9, "b6521a3e73b51b4e3bff75a2bcdd6e07f268f3356782e851db7d3a84547f4907"},
		{4, 16, "dc7d9f1e8198e3b76e4ed51cc90e69f3d962a9b3ae8a6f98e6aca42809afada9"},
		{7, 9, "ba027125ba563e37ec3e0d1373f3f58bda4ee811533d3951d05f943975c8c5dd"},
		{7, 16, "578fd8ac4f110ba9c44a279afef830431e1eb83e5c6ca47322b70b1256eb61ae"},
	} {
		cfg := testConfig()
		cfg.K = tc.k
		recs, err := FindOverlaps(reads, tc.subsets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordDigest(recs); got != tc.want {
			t.Errorf("subsets=%d k=%d: %d records of %d reads, digest %s, want %s", tc.subsets, tc.k, len(recs), len(reads), got, tc.want)
		}
	}
}

// recordDigest hashes records field by field, the layout
// TestFindOverlapsRecordDigest pins.
func recordDigest(recs []Record) string {
	h := sha256.New()
	var buf [21]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(r.A))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.B))
		buf[8] = byte(r.Kind)
		binary.LittleEndian.PutUint32(buf[9:], uint32(r.Len))
		binary.LittleEndian.PutUint32(buf[13:], math.Float32bits(r.Identity))
		binary.LittleEndian.PutUint32(buf[17:], uint32(r.Diag))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
