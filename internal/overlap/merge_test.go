package overlap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"focus/internal/align"
	"focus/internal/dna"
	"focus/internal/par"
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

// moreCredible reports whether r should replace cur among records of the
// same (A, B, Kind) in the oracles below: higher identity wins, then
// longer overlap, then lower diagonal — a total order independent of
// arrival order.
func moreCredible(r, cur Record) bool {
	if r.Identity != cur.Identity {
		return r.Identity > cur.Identity
	}
	if r.Len != cur.Len {
		return r.Len > cur.Len
	}
	return r.Diag < cur.Diag
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

// emitJob runs a job's emissions through the production staging on sc —
// stage each, endRun as the query changes, takeJob — and returns the job's
// staging. An emission is a verified overlap as the query loop produces
// it: A is the query, B a reference read after it. The emissions must come
// in ascending query order, one per (query, reference read): what the loop
// guarantees (a derived strand mirror is its odd query's emission, right
// after its even one's).
func emitJob(sc *scratch, ems []Record) jobRecords {
	sc.pieces, sc.open = sc.pieces[:0], 0
	for i, em := range ems {
		if i > 0 && em.A != ems[i-1].A {
			sc.endRun()
		}
		sc.stage(em)
	}
	sc.endRun()
	return sc.takeJob()
}

// flatJob is emitJob's job as one list, with its staging checked first.
func flatJob(t testing.TB, sc *scratch, ems []Record) []Record {
	t.Helper()
	job := emitJob(sc, ems)
	checkPieces(t, job)
	recs, err := mergeRecords([]jobRecords{job})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// alignQueries runs one query subset against a reference index and
// returns its records as one list.
func alignQueries(query, ref readSet, ix refIndex, cfg Config, sc *scratch) ([]Record, error) {
	return mergeRecords([]jobRecords{alignQueriesGate(query, ref, ix, cfg, sc, nil)})
}

// checkPieces checks a job's staging against what mergeRecords relies on:
// no empty piece, and the pieces' records strictly in (A, B, Kind) order
// with no read's run in two pieces.
func checkPieces(t testing.TB, job jobRecords) {
	t.Helper()
	var all []Record
	for i, p := range job {
		if len(p) == 0 {
			t.Fatalf("piece %d of %d is empty", i, len(job))
		}
		if i > 0 && p[0].A == all[len(all)-1].A {
			t.Fatalf("read %d's run straddles pieces %d and %d", p[0].A, i-1, i)
		}
		all = append(all, p...)
	}
	for i := 1; i < len(all); i++ {
		if compareKey(all[i-1], all[i]) >= 0 {
			t.Fatalf("records %+v, %+v out of order", all[i-1], all[i])
		}
	}
}

// TestSortDedupeKeepsDistinctKinds: the per-job oracle keeps a pair's
// records of two Kinds, in Kind order whatever their input order, as
// mergeRecordsOracle does (TestMergeRecordsMatchesMapOracle draws such
// lists).
func TestSortDedupeKeepsDistinctKinds(t *testing.T) {
	sp := Record{A: 1, B: 2, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95, Diag: 40}
	ct := Record{A: 1, B: 2, Kind: align.KindAContainsB, Len: 80, Identity: 0.92, Diag: 10}
	for _, in := range [][]Record{{sp, ct}, {ct, sp}} {
		if got := sortDedupe(in); !slices.Equal(got, []Record{sp, ct}) {
			t.Fatalf("oracle: got %+v, want both Kinds in Kind order", got)
		}
	}
}

// TestSortDedupePicksMostCredibleDuplicate: the per-job oracle collapses
// true duplicates — the same (A, B, Kind) — to the higher-identity record
// whatever their input order, as mergeRecordsOracle does.
func TestSortDedupePicksMostCredibleDuplicate(t *testing.T) {
	weak := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 55, Identity: 0.91, Diag: 45}
	strong := Record{A: 3, B: 7, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.97, Diag: 40}
	for _, in := range [][]Record{{weak, strong}, {strong, weak}} {
		if got := sortDedupe(in); !slices.Equal(got, []Record{strong}) {
			t.Fatalf("oracle kept %+v, want only the higher-identity %+v", got, strong)
		}
	}
}

// randomEmissions draws one job's emissions in loop order: queries lo ..
// lo+n-1 ascending, each with distinct reference reads in random order —
// a later subset's for a cross-subset job, the later queries for a
// same-subset one.
func randomEmissions(rng *rand.Rand, lo int32, n int, same bool) []Record {
	var ems []Record
	per := []int{0, 1, 2, 10, 40}[rng.Intn(5)]
	for q := lo; q < lo+int32(n); q++ {
		var refs []int32
		if same {
			for g := q + 1; g < lo+int32(n); g++ {
				refs = append(refs, g)
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

// TestSortRecordsMatchesOracle: the in-order emission equals the
// comparison sort on randomized jobs — cross-subset jobs and same-subset
// ones, query runs from empty to several dozen records —
// and on empty and one-record jobs, one scratch serving every job, on
// pieces of the default size and of one to eight records.
func TestSortRecordsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var sc scratch
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(12)
		lo := int32(rng.Intn(50))
		same := rng.Intn(2) == 0
		sc.pieceLen = []int{0, 1 + rng.Intn(8)}[rng.Intn(2)]
		ems := randomEmissions(rng, lo, n, same)
		want := sortDedupe(slices.Clone(ems))
		if got := flatJob(t, &sc, ems); !slices.Equal(got, want) {
			t.Fatalf("trial %d (ids %d..%d, same subset %v, pieces of %d):\n got %+v\nwant %+v\n raw %+v", trial, lo, lo+int32(n)-1, same, sc.pieceLen, got, want, ems)
		}
	}
}

// emission is one verified overlap of query a against reference read b
// with the fields the tests below vary.
func emission(a, b int32, kind align.Kind, identity float32, diag int32) Record {
	return Record{A: a, B: b, Kind: kind, Len: 60, Identity: identity, Diag: diag}
}

// run returns query a's emissions against reference reads from..to-1.
func run(a, from, to int32) []Record {
	var ems []Record
	for b := from; b < to; b++ {
		ems = append(ems, emission(a, b, align.KindSuffixPrefix, 0.95, 10))
	}
	return ems
}

// TestStagePieces walks the staging through each of its cases on pieces
// of four records, checking where the records land and that the job still
// equals the comparison-sort oracle: a run that would straddle two pieces
// moves whole to the next; a run longer than a piece gets one of its own.
func TestStagePieces(t *testing.T) {
	sp := align.KindSuffixPrefix
	for _, tc := range []struct {
		name       string
		ems        []Record
		pieces     []int  // records in each piece
		wantRecord Record // a record the output must hold
	}{
		{"straddle", slices.Concat(run(0, 10, 13), run(1, 10, 13)), []int{3, 3}, emission(1, 12, sp, 0.95, 10)},
		{"long run", slices.Concat(run(0, 10, 12), run(1, 10, 21), run(2, 10, 11)), []int{2, 12}, emission(1, 20, sp, 0.95, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &scratch{pieceLen: 4}
			job := emitJob(sc, tc.ems)
			checkPieces(t, job)
			var lens []int
			for _, p := range job {
				lens = append(lens, len(p))
			}
			if !slices.Equal(lens, tc.pieces) {
				t.Fatalf("pieces of %v records, want %v", lens, tc.pieces)
			}
			got, err := mergeRecords([]jobRecords{job})
			if err != nil {
				t.Fatal(err)
			}
			if want := sortDedupe(slices.Clone(tc.ems)); !slices.Equal(got, want) {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
			if !slices.Contains(got, tc.wantRecord) {
				t.Fatalf("%+v not among %+v", tc.wantRecord, got)
			}
		})
	}
}

// TestStageAllocBounded: staging one same-subset job of 200,000 records
// allocates at most the bytes of the records it keeps plus two pieces: a
// piece is never grown or copied, and the job's output is its staging.
// (Growing a list by doubling allocates up to twice its records.)
func TestStageAllocBounded(t *testing.T) {
	const n = 50_000
	var ems []Record
	for q := int32(0); q < n; q++ {
		for b := q + 1; b < min(q+5, n); b++ {
			ems = append(ems, emission(q, b, align.KindSuffixPrefix, 0.95, 10))
		}
	}
	sc := new(scratch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job := emitJob(sc, ems)
	runtime.ReadMemStats(&after)
	checkPieces(t, job)
	kept := 0
	for _, p := range job {
		kept += len(p)
	}
	size := uint64(unsafe.Sizeof(Record{}))
	if kept != 4*n-10 {
		t.Fatalf("kept %d records", kept)
	}
	bound := uint64(kept+2*defaultPieceLen) * size
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("staging %d records allocated %d bytes, bound %d (the records' %d plus two pieces)", kept, got, bound, uint64(kept)*size)
	}
}

// TestFindOverlapsAllocBounded: the stage on a strand-paired read set
// (6,000 tiling reads, each followed by its reverse complement) at S = 4
// allocates one index arena of the plan's size, whatever its width W: the
// stage reserves it once, every reference phase rebuilds its index in it,
// and the W workers share it. The build's W−1 further count tables (a
// directory's buckets each) are the arena's only W-fold part. The rest of
// the bound is what the stage allocates besides the index: the staging
// (each query chunk's pieces double from firstPieceLen, so they hold at
// most twice the chunk's records plus one first piece), the merged
// output, the repeat count's bucket table per part (two bytes a bucket,
// one part per 2,048 strand pairs at most: repeatKeys), each worker's
// candidate table (a candState per reference read), the reads' headers
// and ids, and 256 KiB for the DP buffers, probes, votes, key batches and
// chunk lists. It is checked at the host's GOMAXPROCS and at 8, where a
// second arena is past it.
func TestFindOverlapsAllocBounded(t *testing.T) {
	var reads []dna.Read
	for _, r := range tilingReads(randGenome(1234, 40*6000+100), 100, 40)[:6000] {
		reads = append(reads, r, dna.Read{ID: r.ID, Seq: dna.ReverseComplement(r.Seq)})
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			checkStageAlloc(t, reads, procs)
		}()
	}
}

// checkStageAlloc is TestFindOverlapsAllocBounded at one GOMAXPROCS.
func checkStageAlloc(t *testing.T, reads []dna.Read, procs int) {
	t.Helper()
	const subsets = 4
	cfg := testConfig()
	w := par.Workers(0, len(reads), 1) // findOverlaps' width
	p, err := newPlan(reads, subsets, cfg, true, w)
	if err != nil {
		t.Fatal(err)
	}
	if !p.reads.paired {
		t.Fatal("the read set is not strand-paired")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := FindOverlaps(reads, subsets, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	nb := 1 << p.arena.dirBits
	arena := p.arena.ents*int(unsafe.Sizeof(kentry{})) + (nb+1)*4 + p.arena.pairs*4 + (nb+63)/64*8
	counts := (w - 1) * nb * 4
	size := int(unsafe.Sizeof(Record{}))
	chunks, kmers, largest := 0, 0, 0
	for r := range subsets {
		chunks += min(chunksPerWorker*w, int(p.bounds[r+1])/2)
		kmers, largest = kmers+p.kmers[r], max(largest, len(p.sub(r).seqs))
	}
	staging := (2*len(recs) + chunks*firstPieceLen) * size
	countTable := 2 << min(bits.Len(uint(kmers/2)/8), 2*cfg.K)
	parts := min(w, (len(reads)/2+repeatGrain-1)/repeatGrain)
	if procs == 8 && parts != 3 {
		t.Fatalf("GOMAXPROCS 8: %d repeat count tables for %d strand pairs, want 3", parts, len(reads)/2)
	}
	rest := parts*countTable + w*largest*int(unsafe.Sizeof(candState{})) + len(reads)*(int(unsafe.Sizeof([]byte(nil)))+4) + 256<<10
	bound := arena + counts + staging + len(recs)*size + rest
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("GOMAXPROCS %d, W=%d, %d chunks, %d records: %d bytes allocated; bound %d (an arena of %d, count tables %d, staging %d, output %d, the rest %d)", procs, w, chunks, len(recs), got, bound, arena, counts, staging, len(recs)*size, rest)
	if got > bound {
		t.Fatalf("GOMAXPROCS %d: the stage allocated %d bytes, bound %d: more than one index arena (of %d bytes) at W=%d", procs, got, bound, arena, w)
	}
}

// randomJobLists draws raw per-job record lists with the geometry the
// stage produces — job (q, r) only holds pairs with A in subset q and B in
// subset r, A < B — from value ranges small enough that duplicate keys,
// several Kinds per pair and equal-credibility ties are all common.
func randomJobLists(rng *rand.Rand, numReads, subsets int) [][][]Record {
	lo := func(s int) int { return s * numReads / subsets }
	raw := make([][][]Record, subsets) // raw[q][r]: pair (q, r)'s list
	for q := range raw {
		raw[q] = make([][]Record, subsets)
		for r := q; r < subsets; r++ {
			nq, nr := lo(q+1)-lo(q), lo(r+1)-lo(r)
			if nq == 0 || nr == 0 || (q == r && nq < 2) {
				continue
			}
			for n := []int{0, 1, 5, 40}[rng.Intn(4)]; n > 0; n-- {
				a, b := lo(q)+rng.Intn(nq), lo(r)+rng.Intn(nr)
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				raw[q][r] = append(raw[q][r], Record{
					A: int32(a), B: int32(b),
					Kind:     align.Kind(1 + rng.Intn(4)),
					Len:      int32(50 + rng.Intn(2)),
					Identity: []float32{0.9, 0.95}[rng.Intn(2)],
					Diag:     int32(rng.Intn(3) - 1),
				})
			}
		}
	}
	return raw
}

// TestMergeRecordsMatchesMapOracle: the linear interleave of the
// references' lists — each subset pair's list sorted and deduplicated (the
// order TestSortRecordsMatchesOracle pins the emission to), a reference's
// in query order — equals the map-and-sort merge of the raw lists.
func TestMergeRecordsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2000; trial++ {
		subsets := 1 + rng.Intn(5)
		numReads := rng.Intn(12)
		raw := randomJobLists(rng, numReads, subsets)
		lists := make([]jobRecords, subsets) // reference r: its pairs' lists in q order
		for q := range raw {
			for r := range raw[q] {
				lists[r] = append(lists[r], sortDedupe(slices.Clone(raw[q][r])))
			}
		}
		got, err := mergeRecords(lists)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := mergeRecordsOracle(slices.Concat(raw...)); !slices.Equal(got, want) {
			t.Fatalf("trial %d (subsets=%d):\n got %+v\nwant %+v\n raw %+v", trial, subsets, got, want, raw)
		}
	}
}

// TestMergeRecordsRejectsUnsortedList: a list that is not sorted and
// deduplicated (what a worker built before the per-job sort returns) is
// an error naming the reference, never a silently mis-merged result.
func TestMergeRecordsRejectsUnsortedList(t *testing.T) {
	rec := func(a, b int32) Record {
		return Record{A: a, B: b, Kind: align.KindSuffixPrefix, Len: 60, Identity: 0.95}
	}
	// Reads 0..3 in two subsets: reference 0 holds the pair (0,1), and
	// reference 1 (0,2) (0,3) (1,2) and (2,3), in two chunks.
	good := []jobRecords{{{rec(0, 1)}}, {{rec(0, 2), rec(0, 3), rec(1, 2)}, {rec(2, 3)}}}
	if got, err := mergeRecords(good); err != nil || len(got) != 5 {
		t.Fatalf("sorted lists: %d records, err %v", len(got), err)
	}
	for name, bad := range map[string][]Record{
		"unsorted":     {rec(0, 3), rec(0, 2), rec(1, 2)},
		"unsorted A":   {rec(1, 2), rec(0, 2), rec(0, 3)},
		"not deduped":  {rec(0, 2), rec(0, 2), rec(1, 2)},
		"foreign pair": {rec(0, 1), rec(0, 2)}, // (0,1) belongs to reference 0
	} {
		_, err := mergeRecords([]jobRecords{good[0], {bad, good[1][1]}})
		if err == nil || !strings.Contains(err.Error(), "overlap: reference 1: records out of order") {
			t.Errorf("%s: err = %v, want the reference 1 order error", name, err)
		}
	}
}

// TestFindOverlapsRecordDigest pins the stage's output on the D2
// analogue, byte for byte, at seed lengths k = 4, 9, 16 and 32 (one bucket
// per 4-mer, a directory narrower than the k-mer, the default, a k-mer
// filling the key) and at 1, 3 and 4 subsets (every job a same-subset
// one; uneven subset sizes; the default), one digest per k: the subset
// count moves no record. (Every 4-mer is repeat-masked: no records.)
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
		{1, 9, "aa8f68be92e13e0bf042674a61a8b718360dda462a9e09963b087beb2591ab28"},
		{1, 16, "7219b6744b4c50ec483621b237b364d316e55354ce498ed77f0f0f3fd0426d1d"},
		{1, 32, "b67c528d7e1978af266ff2b5c75eab5c21e0c9e0a6f916870282968eb4dfa1b5"},
		{3, 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{3, 9, "aa8f68be92e13e0bf042674a61a8b718360dda462a9e09963b087beb2591ab28"},
		{3, 16, "7219b6744b4c50ec483621b237b364d316e55354ce498ed77f0f0f3fd0426d1d"},
		{3, 32, "b67c528d7e1978af266ff2b5c75eab5c21e0c9e0a6f916870282968eb4dfa1b5"},
		{4, 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{4, 9, "aa8f68be92e13e0bf042674a61a8b718360dda462a9e09963b087beb2591ab28"},
		{4, 16, "7219b6744b4c50ec483621b237b364d316e55354ce498ed77f0f0f3fd0426d1d"},
		{4, 32, "b67c528d7e1978af266ff2b5c75eab5c21e0c9e0a6f916870282968eb4dfa1b5"},
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
// read 2i, with quality-trimmed lengths on and off the seed grid, at k = 9
// and 16 and 1, 3, 4 and 7 subsets: the 2,400 reads split 3 and 4 ways on
// even bounds, 7 ways on three odd ones (i·n/7), which a pair-aligned
// split moves by one read; one digest per k.
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
		{1, 9, "81fad29aa9e00b0791864a5f2e4fc880f96f2318b62795ca96ab767af2ed6cc2"},
		{1, 16, "3d372fc341bf1d053f26e0975678ee33183d8783d20ac1cef1bd3715a051f1f3"},
		{3, 9, "81fad29aa9e00b0791864a5f2e4fc880f96f2318b62795ca96ab767af2ed6cc2"},
		{3, 16, "3d372fc341bf1d053f26e0975678ee33183d8783d20ac1cef1bd3715a051f1f3"},
		{4, 9, "81fad29aa9e00b0791864a5f2e4fc880f96f2318b62795ca96ab767af2ed6cc2"},
		{4, 16, "3d372fc341bf1d053f26e0975678ee33183d8783d20ac1cef1bd3715a051f1f3"},
		{7, 9, "81fad29aa9e00b0791864a5f2e4fc880f96f2318b62795ca96ab767af2ed6cc2"},
		{7, 16, "3d372fc341bf1d053f26e0975678ee33183d8783d20ac1cef1bd3715a051f1f3"},
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

// FuzzJobRecords feeds loop-order emissions drawn from data through the
// production staging of the three query chunks of two subsets of size
// reads each (stage, endRun, takeJob on one scratch, pieces of one to
// eight records or the default) — subset 0's queries against reference 0,
// and the queries [0, h) and [h, 2·size) against reference 1, h drawn
// from piece (size at the seeds, another cut across the subsets or at
// their ends otherwise) — then the references' lists, each its chunks'
// pieces in id order, through mergeRecords, which must equal
// mergeRecordsOracle on the emissions. An emission takes three bytes: its
// chunk (mod 3) and whether its query advances (bit 2), its reference read
// (mod size), and its Kind, length, identity and diagonal. An emission of
// a reference read at or before its query, or a second one of a pair, or
// in an empty chunk, is dropped, as the loop makes none.
func FuzzJobRecords(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{})
	// Chunk 0 on pieces of two: read 0's run of three, longer than a
	// piece; read 1's, which moves to a piece of its own; read 2's and
	// read 3's, and one of read 3 against read 1, dropped.
	f.Add(uint8(4), uint8(2), []byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 6, 2, 0, 0, 3, 0, 0, 4, 0, 6, 4, 0, 6, 4, 0x09, 0, 1, 0x0b})
	// Chunk 1: read 0's run of nine, out of order, on pieces of three.
	f.Add(uint8(9), uint8(3), []byte{1, 5, 0, 1, 2, 1, 1, 8, 2, 1, 0, 3, 1, 7, 0, 1, 3, 1, 1, 6, 2, 1, 1, 3, 1, 4, 0})
	// Every chunk; in chunk 2 the pair (8, 9) from read 8, and again from
	// read 9, dropped.
	f.Add(uint8(6), uint8(1), []byte{0, 3, 0x21, 4, 2, 0, 5, 2, 0x20, 5, 1, 0x11})
	f.Fuzz(func(t *testing.T, size, piece uint8, data []byte) {
		n := 1 + int32(size%12)
		h := (n + int32(piece/9)) % (2*n + 1)
		chunks := []struct{ lo, hi, r int32 }{{0, n, 0}, {0, h, 1}, {h, 2 * n, 1}}
		ems := make([][]Record, len(chunks))
		query := make([]int32, len(chunks))
		for c, ch := range chunks {
			query[c] = ch.lo
		}
		seen := map[[2]int32]bool{}
		for ; len(data) >= 3; data = data[3:] {
			c := int(data[0]) % len(chunks)
			ch := chunks[c]
			if data[0]&4 != 0 && query[c] < ch.hi-1 {
				query[c]++
			}
			a, b := query[c], ch.r*n+int32(data[1])%n
			if a >= ch.hi || b <= a || seen[[2]int32{a, b}] {
				continue
			}
			seen[[2]int32{a, b}] = true
			x := data[2]
			ems[c] = append(ems[c], Record{
				A: a, B: b,
				Kind:     align.Kind(1 + x&3),
				Len:      int32(50 + x>>2&1),
				Identity: []float32{0.9, 0.95}[x>>3&1],
				Diag:     int32(x>>4%3) - 1,
			})
		}
		want := mergeRecordsOracle([][]Record{slices.Concat(ems...)})
		sc := &scratch{pieceLen: int(piece % 9)}
		lists := make([]jobRecords, 2)
		for c, ch := range chunks {
			staged := emitJob(sc, ems[c])
			checkPieces(t, staged)
			lists[ch.r] = append(lists[ch.r], staged...)
		}
		got, err := mergeRecords(lists)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pieces of %d, cut at %d:\n got %+v\nwant %+v\n raw %+v", sc.pieceLen, h, got, want, ems)
		}
	})
}
