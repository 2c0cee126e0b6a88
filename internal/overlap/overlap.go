// Package overlap implements the Focus parallel read alignment stage
// (paper §II.B): read subsets are paired, each reference subset is indexed
// for seed lookup (a sorted packed k-mer table), query reads are
// decomposed into k-mers, reference reads collecting enough k-mer hits are
// aligned with banded Needleman–Wunsch, and accepted overlaps are recorded
// as the edge list of the overlap graph G0.
//
// The stage runs one reference subset at a time: its index is built once,
// by every worker, into the stage's one arena, which the plan sizes for the
// largest subset, and every worker then queries it, read-only, with its
// chunks of the queries. The hot path allocates nothing in steady state
// but the pieces the records are staged in, which the output keeps: each
// worker owns a scratch (candidate table, diagonal votes, alignment DP
// buffers) reused across every query it runs. See DESIGN.md ("Seed index &
// scratch reuse") for the layout and the ownership rules.
package overlap

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"focus/internal/align"
	"focus/internal/dist"
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
	MaxOccur    int // ignore k-mers occurring more often in the read set (repeat masking); <=0 = unlimited
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
// across chunks keeps the steady-state loop free of heap allocations.
type scratch struct {
	align align.Scratch // DP score/trace buffers for banded NW

	// Candidate accumulation, keyed by subset-local read index. gen is a
	// generation counter bumped per query so the table is "cleared" in
	// O(1): entries whose gen lags are stale.
	gen     uint32
	cands   []candState
	touched []int32 // local reads first-hit this query, in hit order

	probes []probe // the current query's seed batch

	// Per-chunk record staging (stage): the chunk's records in (A, B, Kind)
	// order, in pieces that are handed to the output as they are,
	// never grown or copied out; a query's run never straddles two pieces,
	// and open is where the current query's run starts in the last one.
	// spare holds empty pieces for reuse: the ones a run that filled a
	// piece on its own moved out of (grow). mirrored holds an even query's
	// strand-mirror records until its own are in order.
	pieces   [][]Record
	open     int
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

// FindOverlaps detects all pairwise overlaps in reads, running each
// reference subset's queries in parallel. Records are canonical (A < B) and
// returned sorted by (A, B, Kind), one per read pair at most: each pair is
// attempted once, from its lower id. The subset count sets how many
// reference indexes are built, one after another, and the size of the one
// arena they are built in (the largest subset's), not the parallelism; it
// is capped at the read count (the strand-pair count on a paired read set).
// The records are the same at any count.
func FindOverlaps(reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	return FindOverlapsCtx(nil, reads, subsets, cfg)
}

// FindOverlapsCtx is FindOverlaps bounded by ctx: a cancel abandons the
// sweep at the next query boundary in every worker and returns the
// context's cause. A nil ctx never cancels.
func FindOverlapsCtx(ctx context.Context, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	recs, _, err := findOverlaps(ctx, reads, subsets, cfg, 0, false, true)
	return recs, err
}

// FindOverlapsDistributedCtx is FindOverlapsCtx: the pool is not used,
// and alignment runs on the master's cores.
//
// Deprecated: only the frozen benchmark harness calls it; use
// FindOverlapsCtx.
func FindOverlapsDistributedCtx(ctx context.Context, _ *dist.Pool, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	return FindOverlapsCtx(ctx, reads, subsets, cfg)
}

// CountCandidates runs the overlap stage up to but excluding alignment
// verification and returns the number of candidate pairs FindOverlaps
// attempts, a derived strand mirror counted as one. The end-to-end
// benchmark times it to split the stage into candidate generation and
// verification.
func CountCandidates(reads []dna.Read, subsets int, cfg Config) (int64, error) {
	_, n, err := findOverlaps(nil, reads, subsets, cfg, 0, true, true)
	return n, err
}

// readSet is a run of reads: their global ids, one ascending run of
// consecutive ids, and their sequences. paired marks a strand-paired run:
// it starts on an even id, has even length, and each odd read is the
// reverse complement of the read before it, so read id^1 is always id's
// other strand and sits at local index i^1.
type readSet struct {
	ids    []int32
	seqs   [][]byte
	paired bool
}

// span is the reads [lo, hi) of the run.
func (rs readSet) span(lo, hi int) readSet {
	return readSet{rs.ids[lo:hi:hi], rs.seqs[lo:hi:hi], rs.paired}
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

// readSeqs returns the reads' sequences.
func readSeqs(reads []dna.Read) [][]byte {
	seqs := make([][]byte, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	return seqs
}

// splitSeqs returns the reads as one run, and the bounds of their
// contiguous subsets: subset s of S starts at read s·n/S, except that a
// strand-paired read set is split on pair boundaries, 2·⌊s·(n/2)/S⌋, so
// that a read and its reverse complement share every subset and every
// query chunk, and every subset is paired. S is capped at the read count,
// the strand-pair count on a paired set (and is at least 1): an empty
// subset would index nothing and still be queried by every earlier read.
func splitSeqs(seqs [][]byte, subsets int) (readSet, []int32) {
	paired := strandPaired(seqs)
	unit := 1
	if paired {
		unit = 2
	}
	units := len(seqs) / unit
	subsets = min(subsets, max(units, 1))
	bounds := make([]int32, subsets+1)
	for i := range bounds {
		bounds[i] = int32(unit * (i * units / subsets))
	}
	ids := make([]int32, len(seqs))
	for i := range ids {
		ids[i] = int32(i)
	}
	return readSet{ids, seqs, paired}, bounds
}

// plan is the overlap stage of one read set, which run runs: the reads,
// their subsets' id bounds and k-mer bounds, the read set's repeat mask
// and the storage of the stage's index arena.
type plan struct {
	cfg    Config
	reads  readSet
	bounds []int32 // subset s holds the ids [bounds[s], bounds[s+1])
	kmers  []int   // subset s has at most kmers[s] k-mers (indexKmers)
	masked []uint64
	arena  indexSize // holds the index of any subset
}

// sub is subset s.
func (p *plan) sub(s int) readSet { return p.reads.span(int(p.bounds[s]), int(p.bounds[s+1])) }

// newPlan validates cfg, splits the reads (splitSeqs caps the subset
// count), refuses a subset no index can hold, sizes the index arena for
// the largest subset and counts the repeat mask on `workers` goroutines. Without mirror every query runs on
// its own (alignQueriesGate), to the same records: the all-queries oracle
// the tests hold the production path to.
func newPlan(reads []dna.Read, subsets int, cfg Config, mirror bool, workers int) (*plan, error) {
	if err := validate(cfg, subsets); err != nil {
		return nil, err
	}
	p := &plan{cfg: cfg}
	p.reads, p.bounds = splitSeqs(readSeqs(reads), subsets)
	p.reads.paired = p.reads.paired && mirror
	p.kmers = make([]int, len(p.bounds)-1)
	for s := range p.kmers {
		sub := p.sub(s)
		n, err := indexKmers(sub.seqs, cfg.K)
		if err != nil {
			return nil, err
		}
		p.kmers[s] = n
		sz := sizeIndex(n, len(sub.seqs), cfg.K, sub.paired)
		p.arena = indexSize{max(p.arena.ents, sz.ents), max(p.arena.dirBits, sz.dirBits), max(p.arena.pairs, sz.pairs)}
	}
	p.masked = repeatKeys(p.reads.seqs, cfg.K, p.reads.paired, cfg.MaxOccur, workers)
	return p, nil
}

// chunksPerWorker is the query chunks of a reference per worker: a worker
// whose chunk ran long does not hold up the others.
const chunksPerWorker = 4

// findOverlaps runs the plan on at most `workers` goroutines (<= 0: the
// par governor's count; the records are the same at any width). countOnly
// returns only the candidate total, verifying nothing.
func findOverlaps(ctx context.Context, reads []dna.Read, subsets int, cfg Config, workers int, countOnly, mirror bool) ([]Record, int64, error) {
	workers = par.Workers(workers, len(reads), 1)
	p, err := newPlan(reads, subsets, cfg, mirror, workers)
	if err != nil {
		return nil, 0, err
	}
	return p.run(ctx, workers, countOnly)
}

// run runs the stage on `workers` goroutines, one reference subset r at a
// time. First the workers build r's index into the stage's one arena,
// reserved once at the plan's size; then the queries [0, bounds[r+1]),
// every read up to r's last, are cut into pair-aligned chunks that the
// workers take in turn, each with its own scratch, against the shared
// index. This is where §II.B's "each pair of read subsets can be sent to a
// different processor" happens: a subset pair's queries are spread over
// the goroutines, the processors, and its reference is indexed once.
func (p *plan) run(ctx context.Context, workers int, countOnly bool) ([]Record, int64, error) {
	gate := par.GateFor(ctx)
	var ix kmerIndex
	ix.reserve(p.arena, workers)
	scs := make([]*scratch, workers) // worker-owned; never shared
	lists := make([]jobRecords, len(p.kmers))
	unit := 1
	if p.reads.paired {
		unit = 2 // an even query answers for its odd mirror
	}
	for r := range lists {
		if gate.Stopped() {
			break
		}
		ref := p.sub(r)
		buildKmerIndex(&ix, ref.seqs, p.cfg.K, p.kmers[r], ref.paired, p.masked, workers)
		n := int(p.bounds[r+1]) / unit
		chunks := min(chunksPerWorker*workers, n)
		out := make([]jobRecords, chunks)
		par.Run(workers, chunks, func(w, c int) {
			if scs[w] == nil {
				scs[w] = &scratch{countOnly: countOnly}
			}
			lo, hi := par.Split(n, chunks, c)
			out[c] = alignQueriesGate(p.reads.span(unit*lo, unit*hi), ref, &ix, p.cfg, scs[w], gate)
		})
		lists[r] = slices.Concat(out...)
	}
	if gate.Stopped() {
		return nil, 0, gate.Err()
	}
	var candTotal int64
	for _, sc := range scs {
		if sc != nil {
			candTotal += sc.candTotal
		}
	}
	recs, err := mergeRecords(lists)
	return recs, candTotal, err
}

// maxScore bounds |Match|, |Mismatch| and |Gap|: far past any useful
// scoring, and low enough that no score or penalty sum of the alignment
// rules overflows.
const maxScore = 1 << 20

// validate checks the stage's configuration and subset count.
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

// alignQueriesGate aligns a chunk of queries, none after the reference's
// last read, against the reference index, which it only reads, so that
// every record's A is a query id, and returns the staging (jobRecords) for
// mergeRecords. The gate is polled once per query (a query's seed scan +
// alignments is the natural grain); a stopped gate returns no records,
// which the ctx-taking caller discards.
//
// A query's seeds are resolved as one batch before any vote is cast; vote
// order cannot show, as the modal diagonal breaks ties toward the smaller
// diagonal and the record order is total. Each read pair is attempted
// once, from its lower id: a query inside the reference subset skips
// every reference read up to itself, so every record is canonical as
// found.
//
// When both sides are strand-paired, an even query on the seed grid
// (onGrid) also answers for its odd mirror qi^1 = rc(qi), which is then
// skipped: its candidates are the local^1, with the same hit counts, and
// each vote for d is a vote for |A|-|B|-d (DESIGN.md §7.4). Per candidate
// the mirror attempt is (qi^1, local^1) on |A|-|B|-hi, hi the modal
// diagonal with ties broken upward, derived from the forward verdict where
// hi is its diagonal and it came without a DP kernel (StrandSymmetric),
// verified otherwise. The pair (qi, qi^1) is its own mirror: attempted
// once.
func alignQueriesGate(query, ref readSet, ix refIndex, cfg Config, sc *scratch, gate *par.Gate) jobRecords {
	sc.reset(len(ref.seqs))
	sc.pieces, sc.open = sc.pieces[:0], 0
	mirror := query.paired && ref.paired
	last := ix.pairLast()
	for qi2 := 0; qi2 < len(query.ids); qi2++ {
		if gate.Stopped() {
			return jobRecords{}
		}
		qi, qseq := query.ids[qi2], query.seqs[qi2]
		derive := mirror && qi&1 == 0 && onGrid(qseq, cfg)
		sc.nextQuery()
		// A query inside the reference subset is a reference read too: it
		// and the reads before it are not its candidates.
		self := int32(-1)
		if len(ref.ids) > 0 {
			if d := int64(qi) - int64(ref.ids[0]); d >= 0 && d < int64(len(ref.ids)) {
				self = int32(d)
			}
		}
		ps := sampleSeeds(sc, qseq, cfg)
		ents := ix.resolve(ps)
		for _, p := range ps {
			for _, e := range ents[p.lo:p.hi] {
				// A small bucket's other k-mers share the range.
				if e.key != p.key {
					continue
				}
				h := p.hit(e, last)
				if h.read <= self {
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
			both := derive && local != self^1 // the mirror attempt too
			if sc.countOnly {
				sc.candTotal++
				if both {
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
			if !both {
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

// A chunk's first staging piece holds firstPieceLen records, and each
// next one twice the last, up to defaultPieceLen (96 KiB): a small chunk
// does not take a large piece.
const (
	firstPieceLen   = 64
	defaultPieceLen = 4096
)

// jobRecords is one chunk's records as its staging leaves them, or a
// reference's, its chunks' pieces in id order: pieces whose concatenation
// is in (A, B, Kind) order with one record per key.
type jobRecords [][]Record

// takeJob hands the chunk's staging over. The scratch keeps only the last
// piece's unused room, as a spare piece for its next chunk when a first
// piece fits in it.
func (sc *scratch) takeJob() jobRecords {
	job := jobRecords(sc.pieces)
	if n := len(job) - 1; n >= 0 {
		last := job[n]
		if job[n] = last[:len(last):len(last)]; cap(last)-len(last) >= firstPieceLen {
			sc.spare = append(sc.spare, last[len(last):])
		}
	}
	sc.pieces, sc.open = nil, 0
	return job
}

// stage appends one accepted overlap, canonical (A < B), to the current
// query's run, in a new piece when the last one is full (grow). A derived
// strand mirror is its odd query's record.
func (sc *scratch) stage(rec Record) {
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
// Bs, are sorted by B, and the next query's run starts after them. An
// ended run never moves again.
func (sc *scratch) endRun() {
	n := len(sc.pieces)
	if n == 0 || sc.open == len(sc.pieces[n-1]) {
		return
	}
	last := sc.pieces[n-1]
	slices.SortFunc(last[sc.open:], func(x, y Record) int { return cmp.Compare(x.B, y.B) })
	sc.open = len(last)
}

// compareKey orders records by the identity of an overlap relation, (A, B,
// Kind): the order of the stage's output.
func compareKey(x, y Record) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.Kind, y.Kind)
}

// mergeRecords interleaves the references' records into the stage's
// output, sorted by (A, B, Kind) with one record per key: lists[r] holds
// the records whose B is in subset r, in (A, B, Kind) order. No map and no
// sort are needed: subsets are contiguous id ranges, and each read pair is
// attempted once, so for each A the lists hold runs of ascending B in r
// order. Every appended record must extend the output strictly; a list
// that breaks this is an error.
func mergeRecords(lists []jobRecords) ([]Record, error) {
	total := 0
	for _, l := range lists {
		for _, p := range l {
			total += len(p)
		}
	}
	out := make([]Record, 0, total)
	cur := make([]cursor, len(lists))
	for r, l := range lists {
		cur[r].pieces = l
	}
	for {
		// The smallest A any list still holds.
		var minA int32
		found := false
		for r := range cur {
			if rec, ok := cur[r].peek(); ok && (!found || rec.A < minA) {
				minA, found = rec.A, true
			}
		}
		if !found {
			return out, nil
		}
		for r := range cur {
			var ok bool
			if out, ok = cur[r].take(out, minA); !ok {
				return nil, fmt.Errorf("overlap: reference %d: records out of order", r)
			}
		}
	}
}

// cursor walks one list's records in (A, B, Kind) order, its pieces in
// turn.
type cursor struct {
	pieces jobRecords
	p, i   int // the next record: pieces[p][i]
}

// peek returns the cursor's next record; ok is false at the end.
func (c *cursor) peek() (r Record, ok bool) {
	for c.p < len(c.pieces) && c.i == len(c.pieces[c.p]) {
		c.p, c.i = c.p+1, 0
	}
	if c.p == len(c.pieces) {
		return Record{}, false
	}
	return c.pieces[c.p][c.i], true
}

// take appends the cursor's next records whose A is a to out, each of
// which must extend out strictly; ok is false at the first that does not.
func (c *cursor) take(out []Record, a int32) (_ []Record, ok bool) {
	for r, more := c.peek(); more && r.A == a; r, more = c.peek() {
		if n := len(out); n > 0 && compareKey(out[n-1], r) >= 0 {
			return out, false
		}
		out = append(out, r)
		c.i++
	}
	return out, true
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
// the graph has one writer, graph.FromSortedEdgesCtx, serial and
// memory-bound, and the argument stays only because the frozen benchmark
// harness passes it. A cancel observed before or between the writer's
// scans returns the context's cause. A nil ctx never cancels.
func BuildGraphParCtx(ctx context.Context, numReads int, records []Record, workers int) (*graph.Graph, error) {
	g, _, err := BuildGraphCanonical(ctx, numReads, records)
	return g, err
}

// BuildGraphCanonical builds G0 and returns it with the records it was
// written from, in the overlap stage's order: canonical (A < B) and sorted
// by (A, B). Records already in that order are written directly, and
// returned as they are; the writer's counting scan is the order check.
// Any other list is copied first, never changed: a record with A > B is
// flipped, a self-overlap (A == B) is dropped, as G0 has no self-loops,
// and the copy is sorted by (A, B, Kind). A record with a read outside
// [0, numReads) is an error that names it.
func BuildGraphCanonical(ctx context.Context, numReads int, records []Record) (*graph.Graph, []Record, error) {
	unit := make([]int64, numReads)
	for i := range unit {
		unit[i] = 1
	}
	write := func(recs []Record) (*graph.Graph, bool, error) {
		return graph.FromSortedEdgesCtx(ctx, unit, len(recs), func(i int) (u, v int32, w int64) {
			return recs[i].A, recs[i].B, int64(recs[i].Len)
		})
	}
	g, ordered, err := write(records)
	if ordered || err != nil {
		return g, records, err
	}
	sorted := make([]Record, 0, len(records))
	for i, r := range records {
		if r.A < 0 || int(r.A) >= numReads || r.B < 0 || int(r.B) >= numReads {
			return nil, nil, fmt.Errorf("overlap: record %d (%d,%d) out of range [0,%d)", i, r.A, r.B, numReads)
		}
		if r.A > r.B {
			r = r.flip()
		}
		if r.A != r.B {
			sorted = append(sorted, r)
		}
	}
	slices.SortStableFunc(sorted, compareKey)
	g, _, err = write(sorted)
	return g, sorted, err
}

// flip is the record with A and B exchanged and the geometry re-expressed
// from the new A's point of view: Diag negated, the suffix-prefix and
// prefix-suffix kinds and the two containments traded.
func (r Record) flip() Record {
	f := Record{A: r.B, B: r.A, Kind: strandKind(r.Kind), Len: r.Len, Identity: r.Identity, Diag: -r.Diag}
	switch r.Kind {
	case align.KindAContainsB:
		f.Kind = align.KindBContainsA
	case align.KindBContainsA:
		f.Kind = align.KindAContainsB
	}
	return f
}
