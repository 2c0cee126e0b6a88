// Package overlap implements the Focus parallel read alignment stage
// (paper §II.B): read subsets are paired, each reference subset is indexed
// for seed lookup (a sorted packed k-mer table), query reads are
// decomposed into k-mers, reference reads collecting enough k-mer hits are
// aligned with banded Needleman–Wunsch, and accepted overlaps are recorded
// as the edge list of the overlap graph G0.
//
// The hot path allocates nothing in steady state but the pieces a job's
// records are staged in, which its output keeps: each worker owns a
// scratch (candidate table, diagonal votes, alignment DP buffers) reused
// across every query of every subset-pair job it processes. See DESIGN.md
// ("Seed index & scratch reuse") for the layout and the ownership rules.
package overlap

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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

	probes []probe // the current query's seed batch

	// Per-job record staging (stage): the job's records in (A, B, Kind)
	// order, in pieces that are handed to the job's output as they are,
	// never grown or copied out; a query's run never straddles two pieces,
	// and open is where the current query's run starts in the last one.
	// runs[a] locates the ended run of query lo+a. extra holds the reverse
	// attempts no run had a record of the key for (settle). spare holds
	// empty pieces for reuse: the ones alignQueries hands back once it has
	// copied its job out. mirrored holds an even query's strand-mirror
	// records until its own are in order.
	pieces   [][]Record
	open     int
	lo       int32
	runs     []runLoc
	extra    []Record
	spare    [][]Record
	mirrored []Record
	pieceLen int // records a piece holds; 0 means defaultPieceLen

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

// modes returns the modal diagonal with ties broken toward the smaller
// diagonal (lo), and with ties broken toward the larger one (hi). The
// strand-mirror query casts the same votes on diagonals |A|-|B|-d, so its
// modal diagonal, smallest first, is |A|-|B|-hi.
func (c *candState) modes() (lo, hi int32) {
	best := int32(-1)
	for _, v := range c.diags {
		switch {
		case v.n > best:
			best, lo, hi = v.n, v.d, v.d
		case v.n == best:
			lo, hi = min(lo, v.d), max(hi, v.d)
		}
	}
	return lo, hi
}

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
// subset pairs in parallel. Records are canonical (A < B) and returned
// sorted by (A, B, Kind), with one record per key: the most credible of a
// pair's attempts (moreCredible).
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
	recs, _, err := findOverlaps(ctx, reads, subsets, cfg, 0, false, true)
	return recs, err
}

// CountCandidates runs only the candidate-generation half of the overlap
// stage — seed sampling, index build, repeat masking, hit accumulation
// with modal-diagonal consensus, and the MinKmerHits filter; everything
// up to but excluding alignment verification — and returns the number of
// candidate pairs FindOverlaps attempts. A strand mirror FindOverlaps
// derives from its even query's verdict counts as an attempt, so the count
// is that of every query run on its own. The end-to-end benchmark times
// this to split the overlap stage into candidate generation and
// verification.
func CountCandidates(reads []dna.Read, subsets int, cfg Config) (int64, error) {
	if err := validate(cfg, subsets); err != nil {
		return 0, err
	}
	_, n, err := findOverlaps(nil, reads, subsets, cfg, 0, true, true)
	return n, err
}

// readSet is one side of a subset-pair job: the reads' global ids, one
// ascending run of consecutive ids, and their sequences. paired marks a
// strand-paired run: it starts on an even id, has even length, and each
// odd read is the reverse complement of the read before it, so read id^1
// is always id's other strand and sits at local index i^1.
type readSet struct {
	ids    []int32
	seqs   [][]byte
	paired bool
}

// strandPaired reports whether seqs is made of (read, reverse complement)
// pairs, the read set preprocessing emits with AddReverse (paper §II.A).
func strandPaired(seqs [][]byte) bool {
	if len(seqs)%2 != 0 {
		return false
	}
	for i := 0; i < len(seqs); i += 2 {
		if !dna.IsReverseComplement(seqs[i], seqs[i+1]) {
			return false
		}
	}
	return true
}

// splitSubsets assigns reads to contiguous subsets (shared by the query
// side of the pair jobs and by the index builders): subset s of S starts
// at read s·n/S, except that a strand-paired read set is split on pair
// boundaries, 2·⌊s·(n/2)/S⌋, so that a read and its reverse complement
// share every job and every subset is paired.
func splitSubsets(reads []dna.Read, subsets int) []readSet {
	seqs := make([][]byte, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	paired := strandPaired(seqs)
	bounds := make([]int, subsets+1)
	for i := 0; i <= subsets; i++ {
		if paired {
			bounds[i] = 2 * (i * (len(reads) / 2) / subsets)
		} else {
			bounds[i] = i * len(reads) / subsets
		}
	}
	subs := make([]readSet, subsets)
	for s := range subs {
		lo, hi := bounds[s], bounds[s+1]
		ids := make([]int32, hi-lo)
		for i := range ids {
			ids[i] = int32(lo + i)
		}
		subs[s] = readSet{ids, seqs[lo:hi:hi], paired}
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
// per sampled query k-mer, on a pool of at most `workers` goroutines (<= 0
// lets the par governor size it; the records are identical at any width).
// countOnly skips alignment verification and returns only the
// surviving-candidate total. mirror lets a strand-paired read set's even
// queries answer for their mirrors (alignQueriesGate); without it every
// query runs on its own, with the same records — the all-queries oracle
// the tests hold the production path to.
func findOverlaps(ctx context.Context, reads []dna.Read, subsets int, cfg Config, workers int, countOnly, mirror bool) ([]Record, int64, error) {
	gate := par.GateFor(ctx)
	// Each subset-pair job indexes/scans a whole subset — heavy enough
	// that any second job justifies a second worker (grain 1).
	workers = par.Workers(workers, subsets*(subsets+1)/2, 1)

	subs := splitSubsets(reads, subsets)
	for s := range subs {
		subs[s].paired = subs[s].paired && mirror
	}

	// Build one index per subset (reused across pair jobs).
	indexes := make([]*kmerIndex, subsets)
	errs := make([]error, subsets)
	par.Run(workers, subsets, func(_, s int) {
		if !gate.Stopped() {
			indexes[s], errs[s] = buildKmerIndex(subs[s].seqs, cfg.K, subs[s].paired)
		}
	})
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
	results := make([]jobRecords, len(jobs))
	scs := make([]*scratch, workers) // worker-owned; never shared
	par.Run(workers, len(jobs), func(w, jid int) {
		if gate.Stopped() {
			return
		}
		if scs[w] == nil {
			scs[w] = &scratch{countOnly: countOnly}
		}
		j := jobs[jid]
		results[jid] = alignQueriesGate(subs[j.q], subs[j.r], indexes[j.r], cfg, scs[w], gate)
	})
	if gate.Stopped() {
		return nil, 0, gate.Err()
	}
	var candTotal int64
	for _, sc := range scs {
		if sc != nil {
			candTotal += sc.candTotal
		}
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
// returning the job's canonical records sorted by (A, B, Kind) with one
// record per key, in one slice of their exact size that is the caller's.
// The job's pieces go back to sc. Each side's ids must be one ascending
// run of consecutive ids and no reference id may precede the query ids —
// the geometry of a (q <= r) subset-pair job — so that every record's A is
// a query id. The error is a staging that broke that order, which
// mergeRecords refuses.
func alignQueries(query, ref readSet, ix refIndex, cfg Config, sc *scratch) ([]Record, error) {
	job := alignQueriesGate(query, ref, ix, cfg, sc, nil)
	recs, err := mergeRecords([]pairJob{{}}, []jobRecords{job})
	sc.recycle(job)
	return recs, err
}

// alignQueriesGate is the gate-aware core, which returns the job's staging
// as it stands (jobRecords), for mergeRecords: the gate is polled once per
// query (a query's seed scan + alignments is the natural grain). A stopped
// gate returns no records, which the ctx-taking caller discards.
//
// A query's seeds are resolved as one batch before any vote is cast, and
// the votes walk the resolved entries in probe order. That order cannot
// show: the modal diagonal breaks ties toward the smaller diagonal, and
// the record order is total.
//
// When both sides are strand-paired, an even query on the seed grid
// (onGrid) also answers for its odd mirror qi^1 = rc(qi), which is then
// skipped. Its seeds are the reverse complements of qi's, its candidates
// are the mirrors local^1 with the same hit counts, and each vote for d is
// a vote for |A|-|B|-d (DESIGN.md, "Strand mirrors"). So per candidate the
// mirror attempt is (qi^1, local^1) on |A|-|B|-hi, hi the modal diagonal
// with ties broken upward. Where hi is the forward diagonal and the
// forward verdict came without a DP kernel (align's StrandSymmetric), the
// mirror verdict is derived; otherwise it is verified on its own.
func alignQueriesGate(query, ref readSet, ix refIndex, cfg Config, sc *scratch, gate *par.Gate) jobRecords {
	sc.reset(len(ref.seqs))
	var lo int32
	if len(query.ids) > 0 {
		lo = query.ids[0]
	}
	sc.startJob(lo, len(query.ids))
	mirror := query.paired && ref.paired
	last := ix.pairLast()
	for qi2 := 0; qi2 < len(query.ids); qi2++ {
		if gate.Stopped() {
			return jobRecords{}
		}
		qi, qseq := query.ids[qi2], query.seqs[qi2]
		derive := mirror && qi&1 == 0 && onGrid(qseq, cfg)
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
				// A small bucket's other k-mers share the range.
				if e.key != p.key {
					continue
				}
				h := p.hit(e, last)
				if h.read == self {
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
		sc.mirrored = sc.mirrored[:0]
		for _, local := range sc.touched {
			c := &sc.cands[local]
			if c.hits < int32(cfg.MinKmerHits) {
				continue
			}
			diag, hi := c.modes()
			if sc.countOnly {
				sc.candTotal++
				if derive {
					sc.candTotal++
				}
				continue
			}
			bseq := ref.seqs[local]
			ov, ok := sc.align.OverlapOnDiagonal(qseq, bseq, int(diag), cfg.Align)
			rec := newRecord(qi, ref.ids[local], ov)
			if ok {
				sc.stage(rec)
			}
			if !derive {
				continue
			}
			if diag != hi || !sc.align.StrandSymmetric() {
				md := len(qseq) - len(bseq) - int(hi)
				ov, ok = sc.align.OverlapOnDiagonal(query.seqs[qi2+1], ref.seqs[local^1], md, cfg.Align)
				rec = newRecord(qi^1, ref.ids[local^1], ov)
			} else {
				rec = rec.mirror(len(qseq), len(bseq))
			}
			if ok {
				sc.mirrored = append(sc.mirrored, rec)
			}
		}
		sc.endRun()
		if derive {
			for _, rec := range sc.mirrored {
				sc.stage(rec)
			}
			sc.endRun()
			qi2++ // qi^1 is answered
		}
	}
	return sc.takeJob()
}

// newRecord is the record of an accepted verdict of query a against b.
func newRecord(a, b int32, ov align.Overlap) Record {
	return Record{A: a, B: b, Kind: ov.Kind, Len: int32(ov.Length), Identity: float32(ov.Identity), Diag: int32(ov.Diag)}
}

// A job's first staging piece holds firstPieceLen records, and each next
// one twice the last, up to defaultPieceLen (96 KiB, about a tenth of a
// meta_reads job's records): a small job does not take a large piece.
const (
	firstPieceLen   = 64
	defaultPieceLen = 4096
)

// runLoc locates one query's run: pieces[piece][off:off+n].
type runLoc struct{ piece, off, n int32 }

// jobRecords is one job's records as its staging leaves them: pieces whose
// concatenation is in (A, B, Kind) order with one record per key, and
// extra, the same order, whose keys no piece holds. mergeRecords
// interleaves the two.
type jobRecords struct {
	pieces [][]Record
	extra  []Record
}

// startJob empties the staging for a job of the n queries from id lo.
func (sc *scratch) startJob(lo int32, n int) {
	sc.pieces, sc.extra, sc.open, sc.lo = sc.pieces[:0], sc.extra[:0], 0, lo
	if cap(sc.runs) < n {
		sc.runs = make([]runLoc, n)
	}
	sc.runs = sc.runs[:n]
	clear(sc.runs)
}

// takeJob hands the job's staging over, extra sorted; the scratch keeps
// none of it.
func (sc *scratch) takeJob() jobRecords {
	slices.SortFunc(sc.extra, compareKey)
	job := jobRecords{sc.pieces, sc.extra}
	sc.pieces, sc.extra, sc.open = nil, nil, 0
	return job
}

// recycle takes a job's staging back once its records are copied out.
func (sc *scratch) recycle(job jobRecords) {
	for _, p := range job.pieces {
		sc.spare = append(sc.spare, p[:0])
	}
	sc.pieces, sc.extra = job.pieces[:0], job.extra[:0]
}

// stage records one accepted overlap of a query in canonical direction
// (A < B). Queries run in id order, so a record whose A is the query
// extends the current query's run (push); one whose reference read
// precedes the query is a reverse attempt (settle). Only a same-subset job
// has those: every read is both query and reference there, so a pair is
// attempted once from each side — with seeds sampled from a different read
// each time, hence possibly another modal diagonal and another verdict —
// and both attempts land on the same canonical (A, B). A derived strand
// mirror counts as its odd query's attempt.
func (sc *scratch) stage(rec Record) {
	if rec.A > rec.B {
		sc.settle(rec.Flip())
		return
	}
	sc.push(rec)
}

// push appends rec to the current query's run, in a new piece when the
// last one is full (grow).
func (sc *scratch) push(rec Record) {
	n := len(sc.pieces)
	if n == 0 || len(sc.pieces[n-1]) == cap(sc.pieces[n-1]) {
		sc.grow()
		n = len(sc.pieces)
	}
	sc.pieces[n-1] = append(sc.pieces[n-1], rec)
}

// grow starts a piece and moves the current query's run, which may not be
// sorted yet, into it from the full last piece: nothing else is copied. A
// run that fills a piece on its own moves to one twice its length (only
// repeats make such runs), and its old piece is spare.
func (sc *scratch) grow() {
	limit := cmp.Or(sc.pieceLen, defaultPieceLen)
	n := len(sc.pieces)
	if n == 0 {
		sc.pieces = append(sc.pieces, sc.piece(min(limit, firstPieceLen)))
		return
	}
	last := sc.pieces[n-1]
	run := last[sc.open:]
	p := append(sc.piece(max(min(limit, 2*cap(last)), 2*len(run))), run...)
	if sc.open == 0 {
		sc.pieces[n-1] = p
		sc.spare = append(sc.spare, last[:0])
	} else {
		sc.pieces[n-1] = last[:sc.open]
		sc.pieces = append(sc.pieces, p)
	}
	sc.open = 0
}

// piece returns an empty piece of at least n records, the last spare one
// if it is large enough.
func (sc *scratch) piece(n int) []Record {
	if k := len(sc.spare) - 1; k >= 0 && cap(sc.spare[k]) >= n {
		p := sc.spare[k]
		sc.spare = sc.spare[:k]
		return p
	}
	return make([]Record, 0, n)
}

// endRun ends the current query's run: its records, one A with distinct
// Bs, are sorted by B, located in runs, and the next query's run starts
// after them. An ended run never moves again.
func (sc *scratch) endRun() {
	n := len(sc.pieces)
	if n == 0 || sc.open == len(sc.pieces[n-1]) {
		return
	}
	last := sc.pieces[n-1]
	run := last[sc.open:]
	sortByB(run)
	if a := int64(run[0].A) - int64(sc.lo); a >= 0 && a < int64(len(sc.runs)) {
		sc.runs[a] = runLoc{int32(n - 1), int32(sc.open), int32(len(run))}
	}
	sc.open = len(last)
}

// settle resolves a reverse attempt, flipped to canonical: its A is a
// reference read that precedes the query, so in a same-subset job its run
// has ended, sorted by B with distinct Bs. Where that run holds the
// attempt's key, the record there becomes moreCredible's winner of the two
// (identity, then length, then lower diagonal — a total order, so the side
// that came first does not matter). Otherwise — the other side found no
// overlap, or one of another Kind — the attempt goes to extra.
func (sc *scratch) settle(rec Record) {
	if a := int64(rec.A) - int64(sc.lo); a >= 0 && a < int64(len(sc.runs)) && sc.runs[a].n > 0 {
		loc := sc.runs[a]
		run := sc.pieces[loc.piece][loc.off : loc.off+loc.n]
		i, j := 0, len(run)
		for i < j {
			if h := int(uint(i+j) >> 1); run[h].B < rec.B {
				i = h + 1
			} else {
				j = h
			}
		}
		if i < len(run) && run[i].B == rec.B && run[i].Kind == rec.Kind {
			if moreCredible(rec, run[i]) {
				run[i] = rec
			}
			return
		}
	}
	sc.extra = append(sc.extra, rec)
}

// sortByB orders records that share their A and have distinct Bs — one
// query's run — by B: an insertion sort over a read's own overlaps, a few
// dozen (a longer run, which repeats can make, takes slices.SortFunc).
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

// mergeRecords interleaves the jobs' records (lists[t] belongs to jobs[t],
// in subsetPairs order) into the stage's output, sorted by (A, B, Kind)
// with one record per key. No map and no sort are needed: subsets are
// contiguous id ranges and jobs are (q <= r), so job (q, r) alone produces
// the pairs with A in subset q and B in subset r — two jobs never share an
// (A, B), duplicates exist only inside a same-subset job, and its staging
// already settled them. The jobs of one q therefore hold, for each A of
// subset q, runs of ascending B in r order, and the groups of ascending q
// follow each other; within a job, a run's extra records are merged into
// it by key. Every appended record must extend the output strictly; a list
// that breaks this (a peer that predates the per-job sort) is an error.
func mergeRecords(jobs []pairJob, lists []jobRecords) ([]Record, error) {
	total := 0
	cur := make([]cursor, len(lists))
	for t, l := range lists {
		cur[t].jobRecords = l
		total += len(l.extra)
		for _, p := range l.pieces {
			total += len(p)
		}
	}
	out := make([]Record, 0, total)
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].q == jobs[lo].q {
			hi++
		}
		for {
			// The smallest A any job of the group still holds.
			var minA int32
			found := false
			for t := lo; t < hi; t++ {
				if r, ok := cur[t].peek(); ok && (!found || r.A < minA) {
					minA, found = r.A, true
				}
			}
			if !found {
				break
			}
			for t := lo; t < hi; t++ {
				var ok bool
				if out, ok = cur[t].take(out, minA); !ok {
					return nil, fmt.Errorf("overlap: job (%d,%d): records out of order", jobs[t].q, jobs[t].r)
				}
			}
		}
		lo = hi
	}
	return out, nil
}

// cursor walks one job's records in (A, B, Kind) order: its pieces in
// turn, with its extra records merged in by key.
type cursor struct {
	jobRecords
	p, i, x int // the next records: pieces[p][i] and extra[x]
}

// peek returns the cursor's next record; ok is false at the end.
func (c *cursor) peek() (r Record, ok bool) {
	for c.p < len(c.pieces) && c.i == len(c.pieces[c.p]) {
		c.p, c.i = c.p+1, 0
	}
	switch {
	case c.x < len(c.extra) && (c.p == len(c.pieces) || compareKey(c.extra[c.x], c.pieces[c.p][c.i]) < 0):
		return c.extra[c.x], true
	case c.p < len(c.pieces):
		return c.pieces[c.p][c.i], true
	}
	return Record{}, false
}

// take appends the cursor's next records whose A is a to out, each of
// which must extend out strictly; ok is false at the first that does not.
// It makes peek's choice itself: this loop runs once a record.
func (c *cursor) take(out []Record, a int32) (_ []Record, ok bool) {
	for {
		for c.p < len(c.pieces) && c.i == len(c.pieces[c.p]) {
			c.p, c.i = c.p+1, 0
		}
		var r Record
		switch {
		case c.x < len(c.extra) && c.extra[c.x].A == a && (c.p == len(c.pieces) || compareKey(c.extra[c.x], c.pieces[c.p][c.i]) < 0):
			r = c.extra[c.x]
			c.x++
		case c.p < len(c.pieces) && c.pieces[c.p][c.i].A == a:
			r = c.pieces[c.p][c.i]
			c.i++
		default:
			return out, true
		}
		if n := len(out); n > 0 && compareKey(out[n-1], r) >= 0 {
			return out, false
		}
		out = append(out, r)
	}
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

// mirror returns the record of the same overlap read on the other strand,
// between A^1 = rc(A) and B^1 = rc(B) of lengths lenA and lenB: B^1 starts
// at lenA-lenB-Diag in A^1, a suffix-prefix overlap becomes a prefix-suffix
// one and vice versa, and containment, Len and Identity are unchanged.
func (r Record) mirror(lenA, lenB int) Record {
	return Record{A: r.A ^ 1, B: r.B ^ 1, Kind: strandKind(r.Kind), Len: r.Len, Identity: r.Identity, Diag: int32(lenA-lenB) - r.Diag}
}

// strandKind is the kind of an overlap read on the other strand: the
// suffix-prefix and prefix-suffix kinds trade places.
func strandKind(k align.Kind) align.Kind {
	switch k {
	case align.KindSuffixPrefix:
		return align.KindPrefixSuffix
	case align.KindPrefixSuffix:
		return align.KindSuffixPrefix
	}
	return k
}

// BuildGraph constructs the overlap graph G0 from the records: one node
// per read, one edge per overlap, weighted by alignment length
// (paper §II.C).
func BuildGraph(numReads int, records []Record) (*graph.Graph, error) {
	return BuildGraphParCtx(nil, numReads, records, 0)
}

// BuildGraphParCtx is BuildGraph bounded by ctx. workers has no effect:
// the graph has one writer, serial and memory-bound, and the argument
// stays only because the frozen benchmark harness passes it. A cancel
// observed before or between the writer's scans returns the context's
// cause. A nil ctx never cancels.
//
// Records as the overlap stage emits them — canonical (A < B) and sorted by
// (A, B, Kind) — are already in CSR order, so G0 is written directly from
// them (graph.FromSortedEdgesCtx). Records in any other order go through
// graph.Builder, which sorts them and calls the same writer.
func BuildGraphParCtx(ctx context.Context, numReads int, records []Record, workers int) (*graph.Graph, error) {
	unit := make([]int64, numReads)
	for i := range unit {
		unit[i] = 1
	}
	g, ordered, err := graph.FromSortedEdgesCtx(ctx, unit, len(records), func(i int) (u, v int32, w int64) {
		r := &records[i]
		return r.A, r.B, int64(r.Len)
	})
	if ordered || err != nil {
		return g, err
	}
	return buildGraphBuilder(numReads, records)
}

// buildGraphBuilder builds G0 from records in any order.
func buildGraphBuilder(numReads int, records []Record) (*graph.Graph, error) {
	b := graph.NewBuilder(numReads)
	for _, r := range records {
		if err := b.AddEdge(int(r.A), int(r.B), int64(r.Len)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
