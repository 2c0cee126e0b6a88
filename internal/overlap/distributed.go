package overlap

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"

	"focus/internal/align"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/par"
)

// The paper distributes read alignment itself: "each pair of read subsets
// can be sent to a different processor for independent analysis" (§II.B).
// This file provides that transport: the plan's jobs are executed by RPC
// workers (the same pool that later runs the distributed graph
// algorithms) instead of local goroutines. A job is one reference subset
// and a run of the query subsets paired with it, so the worker indexes the
// reference once for all of them (DESIGN.md §7.5).

// AlignRefArgs ships one job: a reference subset r to index and a run of
// query subsets q <= r to query against it. Subsets are given by their
// bounds in global read ids, so returned records need no translation.
type AlignRefArgs struct {
	// Queries bounds the query subsets: subset i holds the ids
	// [Queries[i], Queries[i+1]).
	Queries []int32
	// RefLo and RefHi bound the reference subset. It is the run's last
	// query subset (a same-subset pair) or lies wholly after the run.
	RefLo, RefHi int32
	// Paired marks a strand-paired job: every bound is even and Seqs holds
	// the even reads only; read 2i+1 is the reverse complement of read 2i.
	Paired bool
	// Seqs holds the reads of the query run, then those of the reference
	// unless it is the run's last query subset.
	Seqs [][]byte
	// Cfg ships without MaxOccur: Masked holds, ascending, the read set's
	// repeat-masked keys (repeatKeys), which the reference is indexed without.
	Cfg    Config
	Masked []uint64
}

// AlignRefReply returns the job's records, one list per query subset in
// the order of Queries. In a paired job's lists a record whose Kind
// carries mirrorDerived stands for itself and for its strand mirror,
// which is not listed (elideMirrors).
type AlignRefReply struct {
	Lists [][]Record
	// Lengths is set at both ends and never shipped: the worker and the
	// master both hold the job's reads, and the records are coded against
	// their lengths (wire.go). Without it every record ships escaped.
	Lengths ReadLengths
}

// ReadLengths gives the length of each read an AlignRefReply's records
// name, 0 for a read it does not hold.
type ReadLengths interface{ ReadLen(id int32) int }

// mirrorDerived marks, on the wire, a record whose strand mirror was
// elided from its list; no defined align.Kind has this bit.
const mirrorDerived align.Kind = 0x80

// scratchPool recycles worker scratches across AlignRef RPC calls:
// net/rpc may serve requests concurrently, so the pool (rather than a
// per-service field) keeps scratch ownership single-goroutine while still
// amortizing buffers across jobs.
var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// AlignRef executes one job (the worker half; assembly.Service exposes it
// over RPC): it runs the job's body (alignJob) and fills reply with the
// lists as they ship — in a paired job, with every strand mirror the
// master can re-derive elided — and with the job's read lengths. A
// request the job cannot be run on — a configuration validate refuses, or
// bounds that do not form a (q <= r) job or do not match the reads
// shipped — is an error, not a worker crash.
func AlignRef(args *AlignRefArgs, reply *AlignRefReply) error {
	if err := validate(args.Cfg, 1); err != nil {
		return err
	}
	queries, ref, err := args.readSets()
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	lists := make([][]Record, len(queries))
	err = alignJob(queries, ref, args.Cfg, args.Masked, sc, nil, func(i int, job jobRecords) error {
		recs, err := sc.copyOut(job)
		if err != nil {
			return err
		}
		if args.Paired {
			recs = elideMirrors(recs, queries[i], ref)
		}
		lists[i] = recs
		return nil
	})
	if err != nil {
		return err
	}
	reply.Lists, reply.Lengths = lists, jobLengths{args}
	return nil
}

// jobLengths gives the lengths of the reads a job ships, once readSets
// has checked them against its bounds: the query run's, then the
// reference's unless the run holds it; a paired job ships each pair's even
// read, whose mirror has its length.
type jobLengths struct{ *AlignRefArgs }

// ReadLen implements ReadLengths.
func (j jobLengths) ReadLen(id int32) int {
	qlo, qhi := j.Queries[0], j.Queries[len(j.Queries)-1]
	var i int
	switch {
	case id >= qlo && id < qhi:
		i = int(id - qlo)
	case id >= j.RefLo && id < j.RefHi:
		i = int(qhi-qlo) + int(id-j.RefLo)
	default:
		return 0
	}
	if j.Paired {
		i /= 2
	}
	return len(j.Seqs[i])
}

// readLengths holds the reads of a whole stage.
type readLengths []dna.Read

// ReadLen implements ReadLengths.
func (r readLengths) ReadLen(id int32) int {
	if id < 0 || int(id) >= len(r) {
		return 0
	}
	return len(r[id].Seq)
}

// readSets checks the job's bounds against its reads and returns its query
// subsets and its reference as read sets, rebuilding a paired job's odd
// reads from the even ones.
func (a *AlignRefArgs) readSets() ([]readSet, readSet, error) {
	n := len(a.Queries)
	if n < 2 {
		return nil, readSet{}, fmt.Errorf("overlap: a job of %d query bounds", n)
	}
	bounds := append(slices.Clone(a.Queries), a.RefLo, a.RefHi)
	for i, b := range bounds {
		if b < 0 || (a.Paired && b%2 != 0) {
			return nil, readSet{}, fmt.Errorf("overlap: bound %d of a job (paired %v)", b, a.Paired)
		}
		if i > 0 && i != n && b < bounds[i-1] {
			return nil, readSet{}, fmt.Errorf("overlap: bounds %v not ascending", bounds)
		}
	}
	qlo, qhi := a.Queries[0], a.Queries[n-1]
	shared := a.RefLo == a.Queries[n-2] && a.RefHi == qhi
	if !shared && a.RefLo < qhi {
		return nil, readSet{}, fmt.Errorf("overlap: reference [%d,%d) overlaps the query run [%d,%d)", a.RefLo, a.RefHi, qlo, qhi)
	}
	total := int(qhi - qlo)
	if !shared {
		total += int(a.RefHi - a.RefLo)
	}
	seqs := a.Seqs
	if a.Paired {
		if len(seqs) != total/2 {
			return nil, readSet{}, fmt.Errorf("overlap: %d even reads for a paired job of %d", len(seqs), total)
		}
		bases := 0
		for _, s := range a.Seqs {
			bases += len(s)
		}
		seqs = make([][]byte, total)
		rc := make([]byte, 0, bases)
		for i, s := range a.Seqs {
			lo := len(rc)
			rc = append(rc, s...)
			dna.ReverseComplementInPlace(rc[lo:])
			seqs[2*i], seqs[2*i+1] = s, rc[lo:len(rc):len(rc)]
		}
	} else if len(seqs) != total {
		return nil, readSet{}, fmt.Errorf("overlap: %d reads for a job of %d", len(seqs), total)
	}
	ids := make([]int32, 0, total)
	for id := qlo; id < qhi; id++ {
		ids = append(ids, id)
	}
	nq := len(ids)
	for id := a.RefLo; !shared && id < a.RefHi; id++ {
		ids = append(ids, id)
	}
	queries := make([]readSet, n-1)
	for i := range queries {
		lo, hi := int(a.Queries[i]-qlo), int(a.Queries[i+1]-qlo)
		queries[i] = readSet{ids[lo:hi:hi], seqs[lo:hi:hi], a.Paired}
	}
	ref := readSet{ids[nq:], seqs[nq:], a.Paired}
	if shared {
		ref = queries[n-2]
	}
	return queries, ref, nil
}

// elideMirrors drops from a paired job's list, sorted by (A, B, Kind),
// every odd-A record that equals the strand mirror of its partner — the
// record of (A^1, B^1) with the mirrored kind — and marks the partner
// mirrorDerived instead. Equality is tested on the finished list, so it
// does not matter whether the mirror's verdict was derived or verified.
// The partner of an odd A is canonical (A^1 < B^1) and never a
// self-mirror (B == A^1); expandMirrors reverses this exactly. The list
// is compacted in place.
func elideMirrors(recs []Record, query, ref readSet) []Record {
	w := 0
	evenA, evenLo, evenHi := int32(-1), 0, 0
	for i := 0; i < len(recs); {
		a := recs[i].A
		j := i + 1
		for j < len(recs) && recs[j].A == a {
			j++
		}
		if a&1 == 0 {
			evenA, evenLo, evenHi = a, w, w+j-i
			w += copy(recs[w:], recs[i:j])
			i = j
			continue
		}
		for ; i < j; i++ {
			r := recs[i]
			if a^1 == evenA {
				evens := recs[evenLo:evenHi]
				k, found := slices.BinarySearchFunc(evens, Record{B: r.B ^ 1, Kind: strandKind(r.Kind)}, func(x, y Record) int {
					return cmp.Or(cmp.Compare(x.B, y.B), cmp.Compare(x.Kind&^mirrorDerived, y.Kind))
				})
				if found {
					p := &evens[k]
					lenA, lenB := len(query.seqs[p.A-query.ids[0]]), len(ref.seqs[p.B-ref.ids[0]])
					if p.mirror(lenA, lenB) == r {
						p.Kind |= mirrorDerived
						continue
					}
				}
			}
			recs[w] = r
			w++
		}
	}
	return recs[:w]
}

// expandMirrors restores the strand mirrors elideMirrors dropped from a
// list, with length(id) the length of read id: each mirrorDerived record
// loses the bit and its mirror joins its odd partner read's run, in
// (A, B, Kind) order. A list without the bit is returned as is. The list
// grows in place when it has the capacity, which the reply decoder
// reserves, so restoring a reply leaves no second copy of its records for
// the collector: the runs are rewritten from the back, each odd run merged
// with the sorted mirrors of the even run before it, and no write
// overtakes a record not yet read (the gap is the number of mirrors still
// to come).
func expandMirrors(recs []Record, length func(int32) int) []Record {
	n, m := len(recs), 0
	for i := range recs {
		if recs[i].Kind&mirrorDerived != 0 {
			m++
		}
	}
	if m == 0 {
		return recs
	}
	out := slices.Grow(recs, m)[:n+m]
	var mirrors []Record
	w := n + m
	for i := n; i > 0; {
		// [oddLo, i) is an odd read's run, [k, oddLo) the even run before
		// it, its partner read's; either may be empty.
		a := out[i-1].A
		oddLo := i
		if a&1 != 0 {
			for oddLo > 0 && out[oddLo-1].A == a {
				oddLo--
			}
		}
		k := oddLo
		for k > 0 && out[k-1].A == a&^1 {
			k--
		}
		mirrors = mirrors[:0]
		for _, r := range out[k:oddLo] {
			if r.Kind&mirrorDerived != 0 {
				r.Kind &^= mirrorDerived
				mirrors = append(mirrors, r.mirror(length(r.A), length(r.B)))
			}
		}
		slices.SortFunc(mirrors, compareKey)
		x := i
		for y := len(mirrors); y > 0; {
			w--
			if x > oddLo && compareKey(out[x-1], mirrors[y-1]) > 0 {
				x--
				out[w] = out[x]
			} else {
				y--
				out[w] = mirrors[y]
			}
		}
		w -= x - k
		copy(out[w:], out[k:x])
		for j := w; j < w+oddLo-k; j++ {
			out[j].Kind &^= mirrorDerived
		}
		i = k
	}
	return out
}

// ReplyError is a worker's alignment reply the master refuses to merge:
// its job fails with it, as a partition phase fails on a reply the master
// cannot apply.
type ReplyError struct {
	Worker int // the worker whose reply was refused
	Q, R   int // the subset pair, or Q = -1 for the job as a whole
	Reason string
}

func (e *ReplyError) Error() string {
	if e.Q < 0 {
		return fmt.Sprintf("overlap: worker %d answered the job of reference subset %d with %s", e.Worker, e.R, e.Reason)
	}
	return fmt.Sprintf("overlap: worker %d answered subset pair (%d,%d) with %s", e.Worker, e.Q, e.R, e.Reason)
}

// checkList validates one reply list of subset pair (q, r), whose ids are
// [qlo, qhi) and [rlo, rhi), and returns it with its elided mirrors
// restored, or the reason it cannot be merged: a record outside the pair,
// not canonical (A < B), of an undefined kind, a non-positive length, an
// identity outside [0, 1] or a diagonal on which its reads do not meet; a
// mirrorDerived bit anywhere but on an even-A, non-self-mirror record of a
// paired job; or a list that is not strictly in (A, B, Kind) order once
// restored.
func checkList(recs []Record, qlo, qhi, rlo, rhi int32, paired bool, length func(int32) int) ([]Record, string) {
	for _, r := range recs {
		switch kind := r.Kind &^ mirrorDerived; {
		case r.A < qlo || r.A >= qhi || r.B < rlo || r.B >= rhi:
			return nil, fmt.Sprintf("record %+v outside [%d,%d)x[%d,%d)", r, qlo, qhi, rlo, rhi)
		case r.A >= r.B:
			return nil, fmt.Sprintf("record %+v not canonical", r)
		case kind < align.KindSuffixPrefix || kind > align.KindBContainsA:
			return nil, fmt.Sprintf("record %+v of kind %d", r, r.Kind)
		case r.Len <= 0 || !(r.Identity >= 0 && r.Identity <= 1):
			return nil, fmt.Sprintf("record %+v of length or identity out of range", r)
		case window(int64(r.Diag), length(r.A), length(r.B)) <= 0:
			return nil, fmt.Sprintf("record %+v on a diagonal its reads do not meet", r)
		case r.Kind != kind && (!paired || r.A&1 != 0 || r.B == r.A^1):
			return nil, fmt.Sprintf("record %+v marked mirror-derived", r)
		}
	}
	recs = expandMirrors(recs, length)
	for i := 1; i < len(recs); i++ {
		if compareKey(recs[i-1], recs[i]) >= 0 {
			return nil, fmt.Sprintf("records %+v, %+v out of order", recs[i-1], recs[i])
		}
	}
	return recs, ""
}

// args builds job j's request.
func (p *plan) args(j refJob) *AlignRefArgs {
	a := &AlignRefArgs{Queries: p.bounds[j.q0 : j.q1+1], RefLo: p.bounds[j.r], RefHi: p.bounds[j.r+1], Paired: p.subs[0].paired, Cfg: p.cfg, Masked: p.masked}
	ship := func(s int) {
		seqs := p.subs[s].seqs
		if !a.Paired {
			a.Seqs = append(a.Seqs, seqs...)
			return
		}
		for i := 0; i < len(seqs); i += 2 {
			a.Seqs = append(a.Seqs, seqs[i])
		}
	}
	for q := j.q0; q < j.q1; q++ {
		ship(q)
	}
	if j.r >= j.q1 {
		ship(j.r)
	}
	return a
}

// FindOverlapsDistributedCtx is FindOverlaps with the plan's refJobs run
// over the worker pool, cut for its healthy workers. It produces exactly
// the records of the local version. A cancel of ctx severs the in-flight
// RPCs and returns the context's cause; a nil ctx never cancels. A reply
// that fails checkList fails the stage with a *ReplyError.
func FindOverlapsDistributedCtx(ctx context.Context, pool *dist.Pool, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	p, err := newPlan(reads, subsets, cfg, true, 0)
	if err != nil {
		return nil, err
	}
	jobs := refJobs(subsets, max(pool.NumHealthy(), 1))
	lengths := readLengths(reads)
	replies := make([]interface{}, len(jobs))
	for i := range replies {
		replies[i] = &AlignRefReply{Lengths: lengths}
	}
	_, served, err := pool.ParallelCallsCtx(ctx, len(jobs), "AlignRef", func(t int) interface{} {
		return p.args(jobs[t])
	}, replies)
	if err != nil {
		// A canceled run must surface the cancellation, not degrade: the
		// severed RPCs classify as transport errors and would otherwise
		// trip the no-healthy-workers fallback below.
		if ctx != nil && ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		// Graceful degradation: with no healthy workers left the master
		// runs the same jobs on local goroutines.
		if errors.Is(err, dist.ErrNoWorkers) || pool.NumHealthy() == 0 {
			log.Printf("overlap: distributed alignment: no healthy workers (%v); falling back to local execution", err)
			recs, _, err := p.runLocal(ctx, jobs, par.Workers(0, len(jobs), 1), false)
			return recs, err
		}
		return nil, err
	}
	lists := p.pairLists()
	for t, j := range jobs {
		// Each list is restored in place and let go of by its reply, so
		// the stage holds one copy of its records until the merge.
		reply := replies[t].(*AlignRefReply)
		replies[t] = nil
		if len(reply.Lists) != j.units() {
			return nil, &ReplyError{Worker: served[t], Q: -1, R: j.r, Reason: fmt.Sprintf("%d lists for %d query subsets", len(reply.Lists), j.units())}
		}
		for i, l := range reply.Lists {
			q := j.q0 + i
			recs, bad := checkList(l, p.bounds[q], p.bounds[q+1], p.bounds[j.r], p.bounds[j.r+1], p.subs[0].paired, lengths.ReadLen)
			if bad != "" {
				return nil, &ReplyError{Worker: served[t], Q: q, R: j.r, Reason: bad}
			}
			lists[q][j.r] = jobRecords{recs} // a decoded list is a job of one piece
			reply.Lists[i] = nil
		}
	}
	return mergeRecords(lists)
}
