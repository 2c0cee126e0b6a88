// Package overlap implements the Focus parallel read alignment stage
// (paper §II.B): read subsets are paired, each reference subset is indexed
// for seed lookup (a sorted packed k-mer table), query reads are
// decomposed into k-mers, reference reads collecting enough k-mer hits are
// aligned with banded Needleman–Wunsch, and accepted overlaps are recorded
// as the edge list of the overlap graph G0.
//
// The hot path is allocation-free steady-state: each worker owns a scratch
// (candidate table, diagonal votes, alignment DP buffers) reused across
// every query of every subset-pair job it processes. See DESIGN.md
// ("Seed index & scratch reuse") for the layout and the ownership rules.
package overlap

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"focus/internal/align"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/par"
)

// Record is one accepted overlap between reads A and B (indices into the
// preprocessed read set). For Kind == SuffixPrefix, A precedes B; for
// PrefixSuffix, B precedes A; containment kinds mark redundant reads.
type Record struct {
	A, B     int32
	Kind     align.Kind
	Len      int32
	Identity float32
	Diag     int32 // offset of B's start in A coordinates
}

// Config controls overlap detection.
type Config struct {
	K           int // seed k-mer length
	Step        int // distance between sampled query k-mers (1 = every k-mer)
	MinKmerHits int // hits a reference read needs before alignment is tried
	MaxOccur    int // ignore k-mers occurring more often in a subset (repeat masking); <=0 = unlimited
	Align       align.Config
	Workers     int // concurrent subset-pair jobs; <=0 = GOMAXPROCS
	// Seeding selects the query sampling strategy; SeedMinimizer uses
	// (MinimizerW, K)-minimizers instead of every Step-th k-mer.
	Seeding    Seeding
	MinimizerW int // minimizer window in k-mers (default 8)
	// RPCRetries is the per-job failover budget of the distributed mode:
	// a job failed by a worker at the application level is retried on up
	// to this many other workers before the error counts. Ignored by the
	// local mode.
	RPCRetries int
}

// DefaultConfig returns a configuration tuned for 100 bp reads, with the
// paper's acceptance thresholds (50 bp, 90% identity).
func DefaultConfig() Config {
	return Config{
		K:           16,
		Step:        4,
		MinKmerHits: 2,
		MaxOccur:    64,
		Align:       align.DefaultConfig(),
		Workers:     0,
	}
}

// scratch is the reusable per-worker state of the alignment inner loop.
// One scratch is owned by exactly one goroutine at a time; reusing it
// across jobs keeps the steady-state loop free of heap allocations.
type scratch struct {
	align align.Scratch // DP score/trace buffers for banded NW

	// Candidate accumulation, keyed by subset-local read index. gen is a
	// generation counter bumped per query so the table is "cleared" in
	// O(1): entries whose gen lags are stale.
	gen     uint32
	cands   []candState
	touched []int32 // local reads first-hit this query, in hit order

	probes   []probe   // the current query's seed batch
	minimKms []minimKm // minimizer seeding: per-read k-mer hash buffer
	seedOffs []int     // minimizer seeding: selected offsets buffer

	// Per-job record staging: records whose A is their query, already in
	// (A, B) order, and records whose A is another, earlier query (a
	// same-subset job's flipped ones), sorted in place and merged by
	// jobRecords with its run bounds.
	records []Record
	flipped []Record
	counts  []int32

	// countOnly short-circuits the alignment: surviving candidates are
	// tallied into candTotal instead of verified (CountCandidates).
	countOnly bool
	candTotal int64
}

// candState accumulates seed evidence for one reference read against the
// current query: hit count plus diagonal votes for modal-diagonal
// estimation. diags is reused across generations by truncation, so after
// warm-up no per-query allocation happens.
type candState struct {
	gen   uint32
	hits  int32
	diags []diagVote
}

type diagVote struct{ d, n int32 }

// reset prepares the scratch for a reference subset of n reads.
func (sc *scratch) reset(n int) {
	if len(sc.cands) < n {
		sc.cands = make([]candState, n)
		sc.gen = 0
	}
}

// nextQuery starts a new query generation, handling uint32 wraparound.
func (sc *scratch) nextQuery() {
	sc.gen++
	if sc.gen == 0 { // wrapped: stale entries could alias, hard-clear
		for i := range sc.cands {
			sc.cands[i].gen = 0
		}
		sc.gen = 1
	}
	sc.touched = sc.touched[:0]
}

// FindOverlaps detects all pairwise overlaps in reads, processing
// subset pairs in parallel. Records are canonicalized (A < B) and
// deduplicated, and returned sorted by (A, B).
func FindOverlaps(reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	return FindOverlapsCtx(nil, reads, subsets, cfg)
}

// FindOverlapsCtx is FindOverlaps bounded by ctx: a cancel abandons the
// sweep at the next query boundary in every worker (the workers keep
// draining the job channel so the feeder never blocks) and returns the
// context's cause. A nil ctx never cancels.
func FindOverlapsCtx(ctx context.Context, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	if err := validate(cfg, subsets); err != nil {
		return nil, err
	}
	recs, _, err := findOverlaps(ctx, reads, subsets, cfg, false)
	return recs, err
}

// CountCandidates runs only the candidate-generation half of the overlap
// stage — seed sampling, index build, repeat masking, hit accumulation
// with modal-diagonal consensus, and the MinKmerHits filter; everything
// up to but excluding alignment verification — and returns the number of
// candidate pairs FindOverlaps would verify. The end-to-end benchmark
// times this to split the overlap stage into candidate generation and
// verification.
func CountCandidates(reads []dna.Read, subsets int, cfg Config) (int64, error) {
	if err := validate(cfg, subsets); err != nil {
		return 0, err
	}
	_, n, err := findOverlaps(nil, reads, subsets, cfg, true)
	return n, err
}

// readSet is one side of a subset-pair job: the reads' global ids, one
// ascending run of consecutive ids, and their sequences.
type readSet struct {
	ids  []int32
	seqs [][]byte
}

// splitSubsets assigns reads to contiguous subsets (shared by the query
// side of the pair jobs and by the index builders).
func splitSubsets(reads []dna.Read, subsets int) []readSet {
	bounds := make([]int, subsets+1)
	for i := 0; i <= subsets; i++ {
		bounds[i] = i * len(reads) / subsets
	}
	subs := make([]readSet, subsets)
	for s := range subs {
		n := bounds[s+1] - bounds[s]
		ids := make([]int32, n)
		seqs := make([][]byte, n)
		for i := 0; i < n; i++ {
			ids[i] = int32(bounds[s] + i)
			seqs[i] = reads[bounds[s]+i].Seq
		}
		subs[s] = readSet{ids, seqs}
	}
	return subs
}

// pairJob is one subset-pair alignment job: the reads of subset q queried
// against the index of subset r, q <= r.
type pairJob struct{ q, r int }

// subsetPairs enumerates the jobs in (q, r) order — the order mergeRecords
// relies on.
func subsetPairs(subsets int) []pairJob {
	jobs := make([]pairJob, 0, subsets*(subsets+1)/2)
	for q := 0; q < subsets; q++ {
		for r := q; r < subsets; r++ {
			jobs = append(jobs, pairJob{q, r})
		}
	}
	return jobs
}

// findOverlaps builds one seed index per reference subset and probes it
// per sampled query k-mer. countOnly skips alignment verification and
// returns only the surviving-candidate total.
func findOverlaps(ctx context.Context, reads []dna.Read, subsets int, cfg Config, countOnly bool) ([]Record, int64, error) {
	gate := par.GateFor(ctx)
	// Each subset-pair job indexes/scans a whole subset — heavy enough
	// that any second job justifies a second worker (grain 1). The
	// governor also caps explicit counts at GOMAXPROCS.
	workers := par.Workers(cfg.Workers, subsets*(subsets+1)/2, 1)

	subs := splitSubsets(reads, subsets)

	// Build one index per subset (reused across pair jobs).
	indexes := make([]*kmerIndex, subsets)
	errs := make([]error, subsets)
	var iwg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s < subsets; s++ {
		iwg.Add(1)
		go func(s int) {
			defer iwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if gate.Stopped() {
				return
			}
			indexes[s], errs[s] = buildKmerIndex(subs[s].seqs, cfg.K)
		}(s)
	}
	iwg.Wait()
	// A skipped index build leaves a nil index the pair jobs would probe.
	if gate.Stopped() {
		return nil, 0, gate.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}

	jobs := subsetPairs(subsets)

	var candTotal int64
	results := make([][]Record, len(jobs))
	var wg sync.WaitGroup
	jobCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(scratch) // worker-owned; never shared
			sc.countOnly = countOnly
			for jid := range jobCh {
				if gate.Stopped() {
					continue // keep draining so the feeder never blocks
				}
				j := jobs[jid]
				results[jid] = alignQueriesGate(subs[j.q], subs[j.r], indexes[j.r], cfg, sc, gate)
			}
			atomic.AddInt64(&candTotal, sc.candTotal)
		}()
	}
	for jid := range jobs {
		jobCh <- jid
	}
	close(jobCh)
	wg.Wait()
	if gate.Stopped() {
		return nil, 0, gate.Err()
	}

	recs, err := mergeRecords(jobs, results)
	return recs, candTotal, err
}

// maxScore bounds |Match|, |Mismatch| and |Gap|: far past any useful
// scoring, and low enough that no score or penalty sum of the alignment
// rules overflows.
const maxScore = 1 << 20

// validate checks the configuration shared by the local and distributed
// drivers.
func validate(cfg Config, subsets int) error {
	if cfg.K <= 0 || cfg.K > dna.MaxK {
		return fmt.Errorf("overlap: k=%d out of range", cfg.K)
	}
	if subsets <= 0 {
		return fmt.Errorf("overlap: %d subsets", subsets)
	}
	for _, v := range []int{cfg.Align.Scoring.Match, cfg.Align.Scoring.Mismatch, cfg.Align.Scoring.Gap} {
		if v < -maxScore || v > maxScore {
			return fmt.Errorf("overlap: scoring %+v out of range", cfg.Align.Scoring)
		}
	}
	return nil
}

// alignQueries aligns the query reads against the reference index,
// returning the job's canonicalized records sorted by (A, B, Kind) with
// one record per key. Each side's ids must be one ascending run of
// consecutive ids and no reference id may precede the query ids — the
// geometry of a (q <= r) subset-pair job — so that every record's A is a
// query id. The returned slice is the caller's.
func alignQueries(query, ref readSet, ix refIndex, cfg Config, sc *scratch) []Record {
	return alignQueriesGate(query, ref, ix, cfg, sc, nil)
}

// alignQueriesGate is the gate-aware core: the gate is polled once per
// query (a query's seed scan + alignments is the natural grain). A stopped
// gate returns nil, which the ctx-taking caller discards.
//
// A query's seeds are resolved as one batch before any vote is cast, and
// the votes walk the resolved entries in probe order. That order cannot
// show: the modal diagonal breaks ties toward the smaller diagonal, and
// the record order is total.
func alignQueriesGate(query, ref readSet, ix refIndex, cfg Config, sc *scratch, gate *par.Gate) []Record {
	sc.reset(len(ref.seqs))
	sc.records, sc.flipped = sc.records[:0], sc.flipped[:0]
	for qi2, qi := range query.ids {
		if gate.Stopped() {
			return nil
		}
		qseq := query.seqs[qi2]
		sc.nextQuery()
		// In a same-subset job the query is a reference read too; its own
		// k-mers are no evidence.
		self := int32(-1)
		if len(ref.ids) > 0 {
			if d := int64(qi) - int64(ref.ids[0]); d >= 0 && d < int64(len(ref.ids)) {
				self = int32(d)
			}
		}
		ps := sampleSeeds(sc, qseq, cfg)
		ents := ix.resolve(ps, cfg.MaxOccur)
		for _, p := range ps {
			for _, e := range ents[p.lo:p.hi] {
				h := e.hit
				// A small bucket's other k-mers share the range.
				if e.key != p.km || h.read == self {
					continue
				}
				c := &sc.cands[h.read]
				if c.gen != sc.gen {
					c.gen = sc.gen
					c.hits = 0
					c.diags = c.diags[:0]
					sc.touched = append(sc.touched, h.read)
				}
				c.hits++
				// diag: offset of reference read start in query coords.
				d := p.off - h.off
				voted := false
				for i := range c.diags {
					if c.diags[i].d == d {
						c.diags[i].n++
						voted = true
						break
					}
				}
				if !voted {
					c.diags = append(c.diags, diagVote{d: d, n: 1})
				}
			}
		}
		first := len(sc.records)
		for _, local := range sc.touched {
			c := &sc.cands[local]
			if c.hits < int32(cfg.MinKmerHits) {
				continue
			}
			// Modal diagonal, ties broken toward the smaller diagonal.
			var diag int32
			best := int32(-1)
			for _, v := range c.diags {
				if v.n > best || (v.n == best && v.d < diag) {
					best, diag = v.n, v.d
				}
			}
			if sc.countOnly {
				sc.candTotal++
				continue
			}
			ov, ok := sc.align.OverlapOnDiagonal(qseq, ref.seqs[local], int(diag), cfg.Align)
			if !ok {
				continue
			}
			sc.stage(Record{A: qi, B: ref.ids[local], Kind: ov.Kind, Len: int32(ov.Length), Identity: float32(ov.Identity), Diag: int32(ov.Diag)})
		}
		sortByB(sc.records[first:]) // queries run in id order: records stays in (A, B) order
	}
	if len(query.ids) == 0 {
		return nil
	}
	return sc.jobRecords(query.ids[0], len(query.ids))
}

// stage appends one verified overlap of a query in canonical direction
// (A < B): to records when the query is A, to flipped when the reference
// read precedes it. Only a same-subset job flips: every read is both
// query and reference there, so a pair is verified once from each side —
// with seeds sampled from a different read each time, hence possibly
// another modal diagonal and another verdict — and both attempts land on
// the same canonical (A, B); jobRecords keeps the more credible one.
func (sc *scratch) stage(rec Record) {
	if rec.A > rec.B {
		sc.flipped = append(sc.flipped, rec.Flip())
		return
	}
	sc.records = append(sc.records, rec)
}

// sortByB orders records that share their A and have distinct Bs — one
// query's unflipped records, or one read's run of flipped ones — by B: an
// insertion sort over a read's own overlaps, a few dozen (a longer run,
// which repeats can make, takes slices.SortFunc).
func sortByB(recs []Record) {
	if len(recs) > 32 {
		slices.SortFunc(recs, func(x, y Record) int { return cmp.Compare(x.B, y.B) })
		return
	}
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		j := i
		for ; j > 0 && recs[j-1].B > r.B; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
	}
}

// jobRecords returns the job's staged records in (A, B, Kind) order with
// one record per key, the most credible, in a new slice. records is in
// (A, B) order with distinct keys already, so a job without flipped
// records — every cross-subset job — returns a copy of it. Every flipped
// A is one of the n consecutive query ids from lo (it is a reference read
// preceding its query, and no reference id precedes the query ids), so a
// counting sort on A — swapping each record into its read's run, in place
// (American flag sort) — and a sort of each run by B put the flipped
// records in (A, B) order, and a merge interleaves the two lists.
func (sc *scratch) jobRecords(lo int32, n int) []Record {
	recs, fl := sc.records, sc.flipped
	if len(fl) == 0 {
		return slices.Clone(recs)
	}
	if cap(sc.counts) < 2*n+1 {
		sc.counts = make([]int32, 2*n+1)
	}
	// start[a] is where read lo+a's run begins, next[a] its first slot not
	// yet holding a record of that read.
	start, next := sc.counts[:n+1], sc.counts[n+1:2*n+1]
	clear(start)
	for _, r := range fl {
		start[r.A-lo+1]++
	}
	for a := range n {
		start[a+1] += start[a]
	}
	copy(next, start)
	for a := range int32(n) {
		for i := next[a]; i < start[a+1]; i = next[a] {
			b := fl[i].A - lo
			if b != a {
				fl[i], fl[next[b]] = fl[next[b]], fl[i]
			}
			next[b]++
		}
		sortByB(fl[start[a]:start[a+1]])
	}
	out := make([]Record, mergeRuns(nil, recs, fl))
	mergeRuns(out, recs, fl)
	return out
}

// mergeRuns merges two lists in (A, B, Kind) order, with distinct keys
// each, into out, keeping moreCredible's winner where both hold a key — a
// pair verified from both sides — and returns the merged length. A nil
// out only counts.
func mergeRuns(out, x, y []Record) int {
	i, j, w := 0, 0, 0
	for i < len(x) && j < len(y) {
		r := x[i]
		switch c := compareKey(x[i], y[j]); {
		case c < 0:
			i++
		case c > 0:
			r = y[j]
			j++
		default:
			if moreCredible(y[j], r) {
				r = y[j]
			}
			i, j = i+1, j+1
		}
		if out != nil {
			out[w] = r
		}
		w++
	}
	if out != nil {
		copy(out[w:], x[i:])
		copy(out[w+len(x)-i:], y[j:])
	}
	return w + len(x) - i + len(y) - j
}

// compareKey orders records by the identity of an overlap relation: a
// read pair can legitimately carry several records of different Kind
// (e.g. a suffix-prefix overlap and a containment), so Kind is part of it.
func compareKey(x, y Record) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.Kind, y.Kind)
}

// moreCredible reports whether r should replace cur among records of the
// same (A, B, Kind): higher identity wins, then longer overlap, then lower
// diagonal — a deterministic total order independent of arrival order.
func moreCredible(r, cur Record) bool {
	if r.Identity != cur.Identity {
		return r.Identity > cur.Identity
	}
	if r.Len != cur.Len {
		return r.Len > cur.Len
	}
	return r.Diag < cur.Diag
}

// mergeRecords interleaves the per-job record lists (lists[t] belongs to
// jobs[t], in subsetPairs order) into the stage's output, sorted by
// (A, B, Kind) with one record per key. No map and no sort are needed:
// subsets are contiguous id ranges and jobs are (q <= r), so job (q, r)
// alone produces the pairs with A in subset q and B in subset r — two jobs
// never share an (A, B), duplicates exist only inside a same-subset job,
// and alignQueries already sorted and deduplicated every list where the
// job ran. The jobs of one q therefore hold, for each A of subset q, runs
// of ascending B in r order, and the groups of ascending q follow each
// other. Every appended record must extend the output strictly; a list
// that breaks this (a peer that predates the per-job sort) is an error.
func mergeRecords(jobs []pairJob, lists [][]Record) ([]Record, error) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]Record, 0, total)
	rest := slices.Clone(lists) // unconsumed tail of every list
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].q == jobs[lo].q {
			hi++
		}
		for {
			// The smallest A any list of the group still holds.
			var minA int32
			found := false
			for _, l := range rest[lo:hi] {
				if len(l) > 0 && (!found || l[0].A < minA) {
					minA, found = l[0].A, true
				}
			}
			if !found {
				break
			}
			for t := lo; t < hi; t++ {
				l := rest[t]
				for len(l) > 0 && l[0].A == minA {
					if n := len(out); n > 0 && compareKey(out[n-1], l[0]) >= 0 {
						return nil, fmt.Errorf("overlap: job (%d,%d): records out of order", jobs[t].q, jobs[t].r)
					}
					out = append(out, l[0])
					l = l[1:]
				}
				rest[t] = l
			}
		}
		lo = hi
	}
	return out, nil
}

// Flip returns the record with A and B exchanged and the geometry
// re-expressed from the new A's point of view.
func (r Record) Flip() Record {
	f := Record{A: r.B, B: r.A, Len: r.Len, Identity: r.Identity, Diag: -r.Diag}
	switch r.Kind {
	case align.KindSuffixPrefix:
		f.Kind = align.KindPrefixSuffix
	case align.KindPrefixSuffix:
		f.Kind = align.KindSuffixPrefix
	case align.KindAContainsB:
		f.Kind = align.KindBContainsA
	case align.KindBContainsA:
		f.Kind = align.KindAContainsB
	default:
		f.Kind = r.Kind
	}
	return f
}

// BuildGraph constructs the overlap graph G0 from the records: one node
// per read, one edge per overlap, weighted by alignment length
// (paper §II.C).
func BuildGraph(numReads int, records []Record) (*graph.Graph, error) {
	return BuildGraphPar(numReads, records, 0)
}

// BuildGraphPar is BuildGraph with an explicit worker count for the
// Builder fallback's CSR edge merge (<= 0 means GOMAXPROCS). Output is
// identical at any count.
func BuildGraphPar(numReads int, records []Record, workers int) (*graph.Graph, error) {
	return BuildGraphParCtx(nil, numReads, records, workers)
}

// BuildGraphParCtx is BuildGraphPar bounded by ctx: a cancel observed at a
// scan, pipeline-stage or chunk boundary returns the context's cause. A nil
// ctx never cancels.
//
// Records as the overlap stage emits them — canonical (A < B) and sorted by
// (A, B, Kind) — are already in CSR order, so G0 is written directly from
// them (graph.FromSortedEdgesCtx). Records in any other order take the
// graph.Builder's sort-based merge; the two graphs are graph.Equal.
func BuildGraphParCtx(ctx context.Context, numReads int, records []Record, workers int) (*graph.Graph, error) {
	g, ordered, err := graph.FromSortedEdgesCtx(ctx, numReads, len(records), func(i int) (u, v int32, w int64) {
		r := &records[i]
		return r.A, r.B, int64(r.Len)
	})
	if ordered || err != nil {
		return g, err
	}
	return buildGraphBuilder(ctx, numReads, records, workers)
}

// buildGraphBuilder builds G0 from records in any order.
func buildGraphBuilder(ctx context.Context, numReads int, records []Record, workers int) (*graph.Graph, error) {
	b := graph.NewBuilder(numReads)
	for _, r := range records {
		if err := b.AddEdge(int(r.A), int(r.B), int64(r.Len)); err != nil {
			return nil, err
		}
	}
	return b.BuildParCtx(ctx, workers)
}
