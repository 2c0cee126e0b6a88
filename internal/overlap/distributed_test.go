package overlap

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/align"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/preprocess"
	"focus/internal/simulate"
)

// alignService exposes AlignRef for the distributed tests without
// importing the assembly package (which would cycle). calls, when set,
// counts the jobs served — one reference index built per job; forge, when
// set, rewrites every reply as a faulty or hostile worker would.
type alignService struct {
	calls *atomic.Int64
	forge func(args *AlignRefArgs, lists [][]Record) [][]Record
}

func (s *alignService) AlignRef(args *AlignRefArgs, reply *AlignRefReply) error {
	if s.calls != nil {
		s.calls.Add(1)
	}
	err := AlignRef(args, reply)
	if err == nil && s.forge != nil {
		reply.Lists = s.forge(args, reply.Lists)
	}
	return err
}

// alignLists runs one job and returns its lists.
func alignLists(args *AlignRefArgs) ([][]Record, error) {
	var reply AlignRefReply
	err := AlignRef(args, &reply)
	return reply.Lists, err
}

func newAlignService() interface{} { return &alignService{} }

// ForgedReply is a reply a forging worker writes byte by byte (exported,
// as net/rpc requires of a reply type).
type ForgedReply []byte

func (f *ForgedReply) AppendTo(dst []byte) []byte { return append(dst, *f...) }

func (f *ForgedReply) DecodeFrom(src []byte) error {
	*f = append((*f)[:0], src...)
	return nil
}

// wireForger answers AlignRef with the true reply, except that its first
// non-empty list ships as the one record forge writes in place of the
// list's first record, r.
type wireForger struct {
	forge func(r Record, lengths ReadLengths) []byte
}

func (s *wireForger) AlignRef(args *AlignRefArgs, reply *ForgedReply) error {
	var r AlignRefReply
	if err := AlignRef(args, &r); err != nil {
		return err
	}
	dst, forged := dist.AppendLen(nil, len(r.Lists), true), false
	for _, l := range r.Lists {
		if forged || len(l) == 0 {
			dst, _ = appendList(dst, l, r.Lengths)
			continue
		}
		dst = dist.AppendVarint(dist.AppendUvarint(dist.AppendLen(dst, 1, true), 0), int64(l[0].B))
		dst = append(dst, s.forge(l[0], r.Lengths)...)
		forged = true
	}
	*reply = dst
	return nil
}

func TestFindOverlapsDistributedMatchesLocal(t *testing.T) {
	genome := randGenome(150, 2500)
	reads := tilingReads(genome, 100, 35)
	cfg := testConfig()

	for _, subsets := range []int{1, 3} {
		local, err := FindOverlaps(reads, subsets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := dist.NewLocalPool(2, newAlignService)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := FindOverlapsDistributedCtx(nil, pool, reads, subsets, cfg)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(remote) != len(local) {
			t.Fatalf("subsets=%d: %d distributed records vs %d local", subsets, len(remote), len(local))
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("subsets=%d record %d: %+v vs %+v", subsets, i, remote[i], local[i])
			}
		}
	}
}

// paperReads is the analogue of paper data set d at scale 0.1 as the
// pipeline feeds the overlap stage: simulated reads through preprocess.Run,
// with AddReverse when paired, so that read 2i+1 is the reverse complement
// of read 2i.
func paperReads(t *testing.T, d int, paired bool) []dna.Read {
	t.Helper()
	spec, err := simulate.PaperDataSet(d, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(d, 8)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	reads, _, err := preprocess.Run(rs.Reads, preprocess.Config{Window: 10, Step: 1, MinQuality: 12, MinLen: 40, AddReverse: paired})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// TestFindOverlapsDistributedMatchesLocalPaired is the distributed stage
// on the strand-paired input the pipeline produces, the D1–D3 analogues:
// byte-identical records to FindOverlapsCtx at 1, 3, 4 and 7 subsets (7
// splits on odd i·n/S bounds) on pools of 1, 2, 4 and 8 workers, with one
// reference index built per refJobs job and never more than one per subset
// pair, pools wider than the subset count included.
func TestFindOverlapsDistributedMatchesLocalPaired(t *testing.T) {
	cfg := testConfig()
	for d := 1; d <= 3; d++ {
		t.Run(fmt.Sprintf("D%d", d), func(t *testing.T) {
			reads := paperReads(t, d, true)
			for _, subsets := range []int{1, 3, 4, 7} {
				local, err := FindOverlapsCtx(nil, reads, subsets, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(local) == 0 {
					t.Fatalf("subsets=%d: no records", subsets)
				}
				for _, width := range []int{1, 2, 4, 8} {
					var calls atomic.Int64
					pool, err := dist.NewLocalPool(width, func() interface{} { return &alignService{calls: &calls} })
					if err != nil {
						t.Fatal(err)
					}
					remote, err := FindOverlapsDistributedCtx(nil, pool, reads, subsets, cfg)
					pool.Close()
					if err != nil {
						t.Fatalf("subsets=%d width=%d: %v", subsets, width, err)
					}
					if !slices.Equal(remote, local) {
						t.Fatalf("subsets=%d width=%d: distributed %d records, local %d; %v",
							subsets, width, len(remote), len(local), firstDiff(remote, local))
					}
					pairs := int64(subsets * (subsets + 1) / 2)
					if n := calls.Load(); n != int64(len(refJobs(subsets, width))) || n > pairs {
						t.Fatalf("subsets=%d width=%d: %d index builds for %d subset pairs", subsets, width, n, pairs)
					}
				}
			}
		})
	}
}

// TestRefJobs: the jobs cover every subset pair (q <= r) exactly once, one
// reference per job with a run of query subsets; they come largest first;
// none holds more than ⌈S(S+1)/2 ÷ W⌉ pairs; and there are never more jobs
// (index builds) than pairs. At S = 4, W = 2 that is one job per subset.
func TestRefJobs(t *testing.T) {
	for subsets := 1; subsets <= 9; subsets++ {
		pairs := subsets * (subsets + 1) / 2
		for workers := 1; workers <= 12; workers++ {
			jobs := refJobs(subsets, workers)
			limit := (pairs + workers - 1) / workers
			seen := map[[2]int]bool{}
			for i, j := range jobs {
				if j.q0 >= j.q1 || j.q1-1 > j.r || j.units() > limit || (i > 0 && j.units() > jobs[i-1].units()) {
					t.Fatalf("S=%d W=%d: job %d of %v", subsets, workers, i, jobs)
				}
				for q := j.q0; q < j.q1; q++ {
					if seen[[2]int{q, j.r}] {
						t.Fatalf("S=%d W=%d: pair (%d,%d) twice in %v", subsets, workers, q, j.r, jobs)
					}
					seen[[2]int{q, j.r}] = true
				}
			}
			if len(seen) != pairs || len(jobs) > pairs || len(jobs) < subsets {
				t.Fatalf("S=%d W=%d: %d jobs cover %d of %d pairs", subsets, workers, len(jobs), len(seen), pairs)
			}
		}
	}
	if jobs := refJobs(4, 2); !slices.Equal(jobs, []refJob{{0, 4, 3}, {0, 3, 2}, {0, 2, 1}, {0, 1, 0}}) {
		t.Fatalf("S=4 W=2: %v", jobs)
	}
}

// TestFindOverlapsDistributedRejectsForgedReplies: a worker whose reply
// the master cannot merge — a record outside its subset pair, not
// canonical, of an undefined kind, length or identity, a mirror-derived
// mark where no mirror can be derived, a duplicate, a list missing — fails
// the stage with a *ReplyError naming the worker, never merges. So do
// forged bytes: a compact record with more non-matching columns than Len
// or on a diagonal whose window is empty, and an escaped record of an
// undefined kind. On an odd (unpaired) 69-read set and on a strand-paired
// one.
func TestFindOverlapsDistributedRejectsForgedReplies(t *testing.T) {
	unpaired := tilingReads(randGenome(154, 100+68*20), 100, 20)
	// A read equal to its own reverse complement overlaps its mirror: a
	// self-mirror record (2i, 2i+1).
	half := randGenome(155, 40)
	palindrome := append(slices.Clone(half), dna.ReverseComplement(half)...)
	paired := append(pairedReadSet(72), dna.Read{Seq: palindrome}, dna.Read{Seq: slices.Clone(palindrome)})
	if len(unpaired) != 69 {
		t.Fatalf("%d unpaired reads", len(unpaired))
	}
	type forgery func(args *AlignRefArgs, lists [][]Record) [][]Record
	// edit rewrites the first non-empty list's first record.
	edit := func(f func(r *Record)) forgery {
		return func(_ *AlignRefArgs, lists [][]Record) [][]Record {
			for _, l := range lists {
				if len(l) > 0 {
					f(&l[0])
					break
				}
			}
			return lists
		}
	}
	// editWhere rewrites the first record of any list that pred selects.
	editWhere := func(pred func(Record) bool, f func(r *Record)) forgery {
		return func(_ *AlignRefArgs, lists [][]Record) [][]Record {
			for _, l := range lists {
				for i := range l {
					if pred(l[i]) {
						f(&l[i])
						return lists
					}
				}
			}
			return lists
		}
	}
	common := map[string]forgery{
		"the reported record": edit(func(r *Record) { *r = Record{A: 21, B: 1 << 30, Kind: 77, Len: -5, Identity: 7} }),
		"B outside":           edit(func(r *Record) { r.B = 1 << 30 }),
		"A outside":           edit(func(r *Record) { r.A = -1 }),
		"A not below B":       edit(func(r *Record) { r.A, r.B = r.B, r.A }),
		"kind none":           edit(func(r *Record) { r.Kind = align.KindNone }),
		"kind 77":             edit(func(r *Record) { r.Kind = 77 }),
		"length 0":            edit(func(r *Record) { r.Len = 0 }),
		"length -5":           edit(func(r *Record) { r.Len = -5 }),
		"identity 7":          edit(func(r *Record) { r.Identity = 7 }),
		"identity NaN":        edit(func(r *Record) { r.Identity = float32(math.NaN()) }),
		"identity negative":   edit(func(r *Record) { r.Identity = -0.5 }),
		"duplicate": func(_ *AlignRefArgs, lists [][]Record) [][]Record {
			for i, l := range lists {
				if len(l) > 0 {
					lists[i] = append([]Record{l[0]}, l...)
					break
				}
			}
			return lists
		},
		"a list missing": func(_ *AlignRefArgs, lists [][]Record) [][]Record { return lists[:len(lists)-1] },
		"a list extra":   func(_ *AlignRefArgs, lists [][]Record) [][]Record { return append(lists, nil) },
		"lists shifted":  func(_ *AlignRefArgs, lists [][]Record) [][]Record { return append(lists, nil)[1:] },
	}
	pairedOnly := map[string]forgery{
		"derived on odd A":       editWhere(func(r Record) bool { return r.A&1 == 1 }, func(r *Record) { r.Kind |= mirrorDerived }),
		"derived on self-mirror": editWhere(func(r Record) bool { return r.B == r.A^1 }, func(r *Record) { r.Kind |= mirrorDerived }),
		"derived and listed": func(args *AlignRefArgs, lists [][]Record) [][]Record {
			// The mirror a marked record stands for, listed as well.
			queries, ref, _ := args.readSets()
			for i, l := range lists {
				for _, p := range l {
					if p.Kind&mirrorDerived != 0 {
						p.Kind &^= mirrorDerived
						q := queries[i]
						m := p.mirror(len(q.seqs[p.A-q.ids[0]]), len(ref.seqs[p.B-ref.ids[0]]))
						k, _ := slices.BinarySearchFunc(l, m, compareKey)
						lists[i] = slices.Insert(l, k, m)
						return lists
					}
				}
			}
			return lists
		},
	}
	unpairedOnly := map[string]forgery{
		"derived when unpaired": editWhere(func(r Record) bool { return r.A&1 == 0 && r.B != r.A^1 }, func(r *Record) { r.Kind |= mirrorDerived }),
	}
	// compact writes r as a compact suffix-prefix record on diag with x
	// non-matching and g gap columns, whether or not they can hold (r.B
	// is its list's base).
	compact := func(r Record, diag int32, x, g uint64) []byte {
		dst := dist.AppendUvarint(nil, uint64(r.A)<<4|uint64(align.KindSuffixPrefix-1)<<1)
		dst = dist.AppendVarint(dist.AppendUvarint(dst, 0), int64(diag))
		if g == 0 {
			return dist.AppendUvarint(dst, x<<1)
		}
		return dist.AppendUvarint(dist.AppendUvarint(dst, x<<1|1), g-1)
	}
	wireForgeries := map[string]struct {
		forge  func(r Record, lengths ReadLengths) []byte
		reason string
	}{
		"compact x above Len": {func(r Record, lengths ReadLengths) []byte {
			w := window(int64(r.Diag), lengths.ReadLen(r.A), lengths.ReadLen(r.B))
			return compact(r, r.Diag, uint64(w)+1, 0)
		}, "identity out of range"},
		"compact empty window": {func(r Record, lengths ReadLengths) []byte {
			return compact(r, int32(lengths.ReadLen(r.A)), 0, 60)
		}, "do not meet"},
		"escaped kind 77": {func(r Record, _ ReadLengths) []byte {
			r.Kind = 77
			dst, _ := (&recordCoder{}).appendRecord(nil, &r)
			return dst
		}, "of kind"},
	}
	for _, tc := range []struct {
		name  string
		reads []dna.Read
		extra map[string]forgery
	}{{"unpaired", unpaired, unpairedOnly}, {"paired", paired, pairedOnly}} {
		cfg := testConfig()
		want, err := FindOverlaps(tc.reads, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each forgery must have a record to forge.
		for _, need := range []func(Record) bool{
			func(r Record) bool { return r.A&1 == 0 && r.B != r.A^1 },
			func(r Record) bool { return tc.name == "unpaired" || r.B == r.A^1 },
		} {
			if !slices.ContainsFunc(want, need) {
				t.Fatalf("%s: no record to forge", tc.name)
			}
		}
		forgeries := map[string]forgery{}
		for name, f := range common {
			forgeries[name] = f
		}
		for name, f := range tc.extra {
			forgeries[name] = f
		}
		for name, f := range forgeries {
			pool, err := dist.NewLocalPool(2, func() interface{} { return &alignService{forge: f} })
			if err != nil {
				t.Fatal(err)
			}
			recs, err := FindOverlapsDistributedCtx(nil, pool, tc.reads, 3, cfg)
			pool.Close()
			var re *ReplyError
			if !errors.As(err, &re) || re.Worker < 0 || re.Worker > 1 {
				t.Errorf("%s %s: %d records, error %v", tc.name, name, len(recs), err)
			}
		}
		for name, f := range wireForgeries {
			pool, err := dist.NewLocalPool(2, func() interface{} { return &wireForger{forge: f.forge} })
			if err != nil {
				t.Fatal(err)
			}
			recs, err := FindOverlapsDistributedCtx(nil, pool, tc.reads, 3, cfg)
			pool.Close()
			var re *ReplyError
			if !errors.As(err, &re) || !strings.Contains(re.Reason, f.reason) {
				t.Errorf("%s %s: %d records, error %v", tc.name, name, len(recs), err)
			}
		}
	}
}

// TestFindOverlapsDistributedRetriesHungWorker: a worker that hangs in the
// middle of its first job is timed out and evicted, its job is retried on
// the other worker, and the records equal the local stage's.
func TestFindOverlapsDistributedRetriesHungWorker(t *testing.T) {
	reads := pairedReadSet(73)
	cfg := testConfig()
	local, err := FindOverlaps(reads, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hang := dist.ChaosConfig{Seed: 3, FirstSafe: 1, HangProb: 1, HangFor: 5 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, newAlignService, dist.Options{
		CallTimeout: time.Second,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		if w == 0 {
			return &hang
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote, err := FindOverlapsDistributedCtx(nil, pool, reads, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(remote, local) {
		t.Fatalf("distributed %d records, local %d; %v", len(remote), len(local), firstDiff(remote, local))
	}
	if h := pool.Health(); h.Evictions == 0 || pool.Healthy(0) {
		t.Fatalf("the hung worker was not evicted: %+v", h)
	}
}

func TestFindOverlapsDistributedValidation(t *testing.T) {
	pool, err := dist.NewLocalPool(1, newAlignService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := testConfig()
	cfg.K = 0
	if _, err := FindOverlapsDistributedCtx(nil, pool, nil, 2, cfg); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FindOverlapsDistributedCtx(nil, pool, nil, 0, testConfig()); err == nil {
		t.Error("0 subsets accepted")
	}
}

// TestFindOverlapsDistributedFallsBackWhenPoolDead checks graceful
// degradation: with every worker hung and evicted, the distributed mode
// runs its plan's jobs locally, to FindOverlapsCtx's records.
func TestFindOverlapsDistributedFallsBackWhenPoolDead(t *testing.T) {
	genome := randGenome(152, 1200)
	reads := tilingReads(genome, 100, 40)
	cfg := testConfig()

	local, err := FindOverlapsCtx(nil, reads, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hang := dist.ChaosConfig{Seed: 9, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, newAlignService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig { c := hang; c.Seed += int64(w); return &c })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote, err := FindOverlapsDistributedCtx(nil, pool, reads, 2, cfg)
	if err != nil {
		t.Fatalf("distributed mode did not fall back: %v", err)
	}
	if pool.NumHealthy() != 0 {
		t.Fatalf("%d workers still healthy: the stage did not fall back", pool.NumHealthy())
	}
	if len(local) == 0 || !slices.Equal(remote, local) {
		t.Fatalf("fallback %d records, FindOverlapsCtx %d; %v", len(remote), len(local), firstDiff(remote, local))
	}
}

// TestAlignRefRejectsMalformedJobs: AlignRef requests no refJobs job
// produces — k out of range, a scoring past maxScore, fewer than two query
// bounds, bounds out of order or negative, a reference overlapping or
// preceding the query run, sequences of another count than the bounds
// give, a paired job on odd bounds or shipping its odd reads — are errors;
// the job shapes the master does send (a later reference, a same-subset
// pair, several query subsets, an empty side, a paired job) are not.
func TestAlignRefRejectsMalformedJobs(t *testing.T) {
	genome := randGenome(153, 400)
	// The second read drops a base, so its overlaps reach the DP kernel.
	seqs := [][]byte{genome[:100], append(slices.Clone(genome[50:90]), genome[91:151]...), genome[100:200], genome[150:250]}
	job := func(mut func(*AlignRefArgs)) *AlignRefArgs {
		a := &AlignRefArgs{Queries: []int32{10, 12}, RefLo: 12, RefHi: 14, Seqs: seqs, Cfg: testConfig()}
		mut(a)
		return a
	}
	for name, mut := range map[string]func(*AlignRefArgs){
		"k=0":                func(a *AlignRefArgs) { a.Cfg.K = 0 },
		"k=33":               func(a *AlignRefArgs) { a.Cfg.K = 33 },
		"huge match":         func(a *AlignRefArgs) { a.Cfg.Align.Scoring.Match = 1 << 40 },
		"huge gap":           func(a *AlignRefArgs) { a.Cfg.Align.Scoring.Gap = -(1 << 40) },
		"one bound":          func(a *AlignRefArgs) { a.Queries = a.Queries[:1] },
		"no bounds":          func(a *AlignRefArgs) { a.Queries = nil },
		"seqs short":         func(a *AlignRefArgs) { a.Seqs = a.Seqs[:3] },
		"descending bounds":  func(a *AlignRefArgs) { a.Queries = []int32{12, 10} },
		"wrapping bounds":    func(a *AlignRefArgs) { a.Queries = []int32{math.MaxInt32, math.MinInt32} },
		"negative bounds":    func(a *AlignRefArgs) { a.Queries, a.RefLo, a.RefHi = []int32{-2, 0}, 0, 2 },
		"ref descending":     func(a *AlignRefArgs) { a.RefLo, a.RefHi = 14, 12 },
		"ref overlaps":       func(a *AlignRefArgs) { a.RefLo, a.RefHi = 11, 13 },
		"refs first":         func(a *AlignRefArgs) { a.RefLo, a.RefHi = 8, 10 },
		"paired odd bounds":  func(a *AlignRefArgs) { a.Queries, a.RefLo, a.RefHi, a.Paired = []int32{11, 13}, 13, 15, true },
		"paired every read":  func(a *AlignRefArgs) { a.Paired = true },
		"paired no queries":  func(a *AlignRefArgs) { a.Paired, a.Seqs = true, seqs[:1] },
		"unpaired even only": func(a *AlignRefArgs) { a.Seqs = [][]byte{seqs[0], seqs[2]} },
	} {
		if lists, err := alignLists(job(mut)); err == nil {
			t.Errorf("%s: accepted, %d lists", name, len(lists))
		}
	}
	for name, mut := range map[string]func(*AlignRefArgs){
		"later subset":  func(*AlignRefArgs) {},
		"same subset":   func(a *AlignRefArgs) { a.RefLo, a.RefHi, a.Seqs = 10, 12, seqs[:2] },
		"two queries":   func(a *AlignRefArgs) { a.Queries, a.RefLo, a.RefHi, a.Seqs = []int32{10, 11, 12}, 11, 12, seqs[:2] },
		"gap to ref":    func(a *AlignRefArgs) { a.RefLo, a.RefHi = 20, 22 },
		"no queries":    func(a *AlignRefArgs) { a.Queries, a.Seqs = []int32{10, 10}, seqs[2:] },
		"no refs":       func(a *AlignRefArgs) { a.RefLo, a.RefHi, a.Seqs = 12, 12, seqs[:2] },
		"paired":        func(a *AlignRefArgs) { a.Paired, a.Seqs = true, [][]byte{seqs[0], seqs[2]} },
		"paired shared": func(a *AlignRefArgs) { a.Paired, a.RefLo, a.RefHi, a.Seqs = true, 10, 12, seqs[:1] },
		"huge band": func(a *AlignRefArgs) {
			a.RefLo, a.RefHi, a.Seqs, a.Cfg.Align.Band = 10, 12, seqs[:2], 1<<40
		},
	} {
		a := job(mut)
		lists, err := alignLists(a)
		if err != nil || len(lists) != len(a.Queries)-1 {
			t.Errorf("%s: %d lists, %v", name, len(lists), err)
		}
	}
}

func TestAlignRefDirect(t *testing.T) {
	genome := randGenome(151, 600)
	reads := tilingReads(genome, 100, 50)
	var seqs [][]byte
	for _, r := range reads {
		seqs = append(seqs, r.Seq)
	}
	n := int32(len(seqs))
	lists, err := alignLists(&AlignRefArgs{Queries: []int32{0, n}, RefLo: 0, RefHi: n, Seqs: seqs, Cfg: testConfig()})
	if err != nil || len(lists) != 1 {
		t.Fatalf("%d lists, %v", len(lists), err)
	}
	// Consecutive reads overlap by 50 bp: all must be found.
	found := map[[2]int32]bool{}
	for _, r := range lists[0] {
		found[[2]int32{r.A, r.B}] = true
	}
	for i := 0; i+1 < len(reads); i++ {
		if !found[[2]int32{int32(i), int32(i + 1)}] {
			t.Fatalf("missing overlap %d-%d", i, i+1)
		}
	}
}
