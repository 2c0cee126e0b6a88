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

// sortDedupe is the comparison-sort oracle of the per-job record order
// (the stage's own sort before the counting sort): sort one job's records
// by recordOrder and keep the first record of every key, in place.
func sortDedupe(recs []Record) []Record {
	slices.SortFunc(recs, recordOrder)
	return slices.CompactFunc(recs, func(x, y Record) bool { return compareKey(x, y) == 0 })
}

// sortJob runs the production per-job sort on a copy of recs, whose A
// values lie in the n consecutive query ids from lo.
func sortJob(recs []Record, lo int32, n int) []Record {
	sc := &scratch{records: slices.Clone(recs)}
	return sc.sortRecords(lo, n)
}

// TestSortDedupeKeepsDistinctKinds: a pair reported with both a
// suffix-prefix overlap and a containment keeps both, in an order
// independent of arrival — in the oracle and in the counting sort.
func TestSortDedupeKeepsDistinctKinds(t *testing.T) {
	sp := Record{A: 1, B: 2, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95, Diag: 40}
	ct := Record{A: 1, B: 2, Kind: align.KindAContainsB, Len: 80, Identity: 0.92, Diag: 10}
	for _, in := range [][]Record{{sp, ct}, {ct, sp}} {
		if got := sortJob(in, 0, 3); !slices.Equal(got, []Record{sp, ct}) {
			t.Fatalf("got %+v, want both Kinds in Kind order", got)
		}
		if got := sortDedupe(in); !slices.Equal(got, []Record{sp, ct}) {
			t.Fatalf("oracle: got %+v, want both Kinds in Kind order", got)
		}
	}
}

// TestSortDedupePicksMostCredibleDuplicate: true duplicates — the same
// (A, B, Kind) verified from both sides in a same-subset job — collapse to
// the higher-identity record regardless of which attempt came first.
func TestSortDedupePicksMostCredibleDuplicate(t *testing.T) {
	weak := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 55, Identity: 0.91, Diag: 45}
	strong := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.97, Diag: 40}
	for _, in := range [][]Record{{weak, strong}, {strong, weak}} {
		if got := sortJob(in, 2, 4); !slices.Equal(got, []Record{strong}) {
			t.Fatalf("kept %+v, want only the higher-identity %+v", got, strong)
		}
		if got := sortDedupe(in); !slices.Equal(got, []Record{strong}) {
			t.Fatalf("oracle kept %+v, want only the higher-identity %+v", got, strong)
		}
	}
}

// TestSortRecordsMatchesOracle: the counting sort equals the comparison
// sort on randomized jobs — cross-subset jobs and same-subset ones whose
// records arrive from both sides (flipped, so A is whichever read is
// smaller), runs from empty to longer than the insertion-sort cutoff, and
// duplicates that tie on identity, on identity and length, or on every
// field — and on empty and one-record jobs, one scratch serving every job.
func TestSortRecordsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var sc scratch
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		lo := int32(rng.Intn(50))
		same := rng.Intn(2) == 0
		var recs []Record
		for r := []int{0, 1, 2, 10, 80}[rng.Intn(5)]; r > 0; r-- {
			q := lo + int32(rng.Intn(n))
			g := lo + int32(n) + int32(rng.Intn(20)) // a later subset
			if same {
				if g = lo + int32(rng.Intn(n)); g == q {
					continue
				}
			}
			rec := Record{
				A: q, B: g,
				Kind:     align.Kind(1 + rng.Intn(4)),
				Len:      int32(50 + rng.Intn(2)),
				Identity: []float32{0.9, 0.95}[rng.Intn(2)],
				Diag:     int32(rng.Intn(3) - 1),
			}
			if rec.A > rec.B {
				rec = rec.Flip()
			}
			recs = append(recs, rec)
		}
		want := sortDedupe(slices.Clone(recs))
		sc.records = append(sc.records[:0], recs...)
		if got := sc.sortRecords(lo, n); !slices.Equal(got, want) {
			t.Fatalf("trial %d (ids %d..%d, same subset %v):\n got %+v\nwant %+v\n raw %+v", trial, lo, lo+int32(n)-1, same, got, want, recs)
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

// TestMergeRecordsMatchesMapOracle: the per-job counting sort followed by
// the linear interleave equals the map-and-sort merge of the raw lists.
func TestMergeRecordsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		subsets := 1 + rng.Intn(5)
		numReads := rng.Intn(12)
		jobs, raw := randomJobLists(rng, numReads, subsets)
		lists := make([][]Record, len(raw))
		for t, j := range jobs {
			lo, hi := j.q*numReads/subsets, (j.q+1)*numReads/subsets
			lists[t] = slices.Clone(sortJob(raw[t], int32(lo), hi-lo))
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
// filling the key), to digests computed at the commit before the DP-free
// verdicts and the map-free merge (k = 16) and before the identity bound,
// the counting sort and the scatter-built index (k = 4, 9, 32): none may
// change a record.
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
		k    int
		want string
	}{
		{4, "2ae2a4286f697a0e1872a5b1cd748dd88975c0a654fa6081e32f55c5b0024d46"},
		{9, "f239163f95dcef81c10e81a86a5b09a6ef7c62297e9c636e09c193df0bf64705"},
		{16, "f5f98bada2449b650a209f4a471fe843985d9022429bfa1bdc23a129ad185673"},
		{32, "426eb4ad125465f4e00b20667647c3107b726cc51906e5a7009b2fcb61079c17"},
	} {
		cfg := testConfig()
		cfg.K = tc.k
		recs, err := FindOverlaps(rs.Reads, 4, cfg)
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
			t.Fatalf("k=%d: %d records, digest %s, want %s", tc.k, len(recs), got, tc.want)
		}
	}
}
