package overlap

import (
	"context"
	"errors"
	"log"
	"sort"
	"sync"

	"focus/internal/align"
	"focus/internal/dist"
	"focus/internal/dna"
)

// The paper distributes read alignment itself: "each pair of read subsets
// can be sent to a different processor for independent analysis" (§II.B).
// This file provides that mode: subset-pair jobs are executed by RPC
// workers (the same pool that later runs the distributed graph
// algorithms) instead of local goroutines.

// AlignPairArgs ships one subset-pair job to a worker: the reference
// subset to index and the query subset to decompose into k-mers. IDs are
// the reads' global indices so returned records need no translation.
type AlignPairArgs struct {
	RefIDs    []int32
	RefSeqs   [][]byte
	QueryIDs  []int32
	QuerySeqs [][]byte
	Cfg       Config
}

// AlignPairReply returns the accepted overlap records of one job.
type AlignPairReply struct{ Records []Record }

// scratchPool recycles worker scratches across AlignPair RPC calls:
// net/rpc may serve requests concurrently, so the pool (rather than a
// per-service field) keeps scratch ownership single-goroutine while still
// amortizing buffers across jobs.
var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// AlignPair executes one job (the worker half; assembly.Service exposes
// it over RPC).
func AlignPair(args *AlignPairArgs) []Record {
	ref := buildKmerIndex(args.RefSeqs, args.RefIDs, args.Cfg.K)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	recs := alignQueries(args.QueryIDs, args.QuerySeqs, ref, args.Cfg, sc)
	out := make([]Record, len(recs))
	copy(out, recs)
	return out
}

// FindOverlapsDistributed is FindOverlaps with the subset-pair jobs
// round-robined over the worker pool. It produces exactly the records of
// the local version for the same subset count.
func FindOverlapsDistributed(pool *dist.Pool, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	return FindOverlapsDistributedCtx(nil, pool, reads, subsets, cfg)
}

// FindOverlapsDistributedCtx is FindOverlapsDistributed bounded by ctx:
// a cancel severs the in-flight RPCs and returns the context's cause. A
// nil ctx never cancels.
func FindOverlapsDistributedCtx(ctx context.Context, pool *dist.Pool, reads []dna.Read, subsets int, cfg Config) ([]Record, error) {
	if err := validate(cfg, subsets); err != nil {
		return nil, err
	}
	bounds := make([]int, subsets+1)
	for i := 0; i <= subsets; i++ {
		bounds[i] = i * len(reads) / subsets
	}
	slice := func(s int) ([]int32, [][]byte) {
		ids := make([]int32, 0, bounds[s+1]-bounds[s])
		seqs := make([][]byte, 0, bounds[s+1]-bounds[s])
		for i := bounds[s]; i < bounds[s+1]; i++ {
			ids = append(ids, int32(i))
			seqs = append(seqs, reads[i].Seq)
		}
		return ids, seqs
	}
	type pair struct{ q, r int }
	var jobs []pair
	for i := 0; i < subsets; i++ {
		for j := i; j < subsets; j++ {
			jobs = append(jobs, pair{i, j})
		}
	}
	replies := make([]interface{}, len(jobs))
	for i := range replies {
		replies[i] = &AlignPairReply{}
	}
	_, err := pool.ParallelCallsRetryCtx(ctx, len(jobs), "AlignPair", func(t int) interface{} {
		qIDs, qSeqs := slice(jobs[t].q)
		rIDs, rSeqs := slice(jobs[t].r)
		return &AlignPairArgs{RefIDs: rIDs, RefSeqs: rSeqs, QueryIDs: qIDs, QuerySeqs: qSeqs, Cfg: cfg}
	}, replies, cfg.RPCRetries)
	if err != nil {
		// A canceled run must surface the cancellation, not degrade: the
		// severed RPCs classify as transport errors and would otherwise
		// trip the no-healthy-workers fallback below.
		if ctx != nil && ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		// Graceful degradation: with no healthy workers left the jobs
		// still fit on the master, which runs the identical alignment
		// code with local goroutines.
		if errors.Is(err, dist.ErrNoWorkers) || pool.NumHealthy() == 0 {
			log.Printf("overlap: distributed alignment: no healthy workers (%v); falling back to local execution", err)
			return FindOverlapsCtx(ctx, reads, subsets, cfg)
		}
		return nil, err
	}
	var lists [][]Record
	for _, r := range replies {
		lists = append(lists, r.(*AlignPairReply).Records)
	}
	return mergeRecords(lists), nil
}

// recKey identifies one overlap relation: a read pair can legitimately
// carry several records of different Kind (e.g. a suffix-prefix overlap
// and a containment), so Kind is part of the identity. Keying on (A, B)
// alone dropped all but the first Kind seen — which Kind survived depended
// on job order.
type recKey struct {
	a, b int32
	kind align.Kind
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

// mergeRecords canonicalizes, deduplicates and sorts per-job record
// lists. Duplicates of the same (A, B, Kind) — cross-subset pairs are
// aligned by more than one job — collapse to the most credible record.
func mergeRecords(lists [][]Record) []Record {
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
