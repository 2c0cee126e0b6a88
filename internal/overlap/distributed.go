package overlap

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"

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
// it over RPC). A request the job cannot be run on — a configuration
// validate refuses, ids and sequences of different counts, or ids that do
// not form the two runs of a (q <= r) job: each side one ascending run of
// consecutive ids, the reference run not starting before the query run —
// is an error, not a worker crash.
func AlignPair(args *AlignPairArgs) ([]Record, error) {
	if err := validate(args.Cfg, 1); err != nil {
		return nil, err
	}
	if len(args.RefIDs) != len(args.RefSeqs) || len(args.QueryIDs) != len(args.QuerySeqs) {
		return nil, fmt.Errorf("overlap: %d reference ids for %d sequences, %d query ids for %d",
			len(args.RefIDs), len(args.RefSeqs), len(args.QueryIDs), len(args.QuerySeqs))
	}
	for _, ids := range [][]int32{args.RefIDs, args.QueryIDs} {
		for i, id := range ids {
			if int64(id) != int64(ids[0])+int64(i) {
				return nil, fmt.Errorf("overlap: id %d at position %d of a run from %d", id, i, ids[0])
			}
		}
	}
	if len(args.RefIDs) > 0 && len(args.QueryIDs) > 0 && args.RefIDs[0] < args.QueryIDs[0] {
		return nil, fmt.Errorf("overlap: reference ids from %d precede the query ids from %d", args.RefIDs[0], args.QueryIDs[0])
	}
	ix, err := buildKmerIndex(args.RefSeqs, args.Cfg.K)
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return alignQueries(readSet{args.QueryIDs, args.QuerySeqs}, readSet{args.RefIDs, args.RefSeqs}, ix, args.Cfg, sc), nil
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
	subs := splitSubsets(reads, subsets)
	jobs := subsetPairs(subsets)
	replies := make([]interface{}, len(jobs))
	for i := range replies {
		replies[i] = &AlignPairReply{}
	}
	_, err := pool.ParallelCallsRetryCtx(ctx, len(jobs), "AlignPair", func(t int) interface{} {
		q, r := jobs[t].q, jobs[t].r
		return &AlignPairArgs{RefIDs: subs[r].ids, RefSeqs: subs[r].seqs, QueryIDs: subs[q].ids, QuerySeqs: subs[q].seqs, Cfg: cfg}
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
	lists := make([][]Record, len(replies))
	for t, r := range replies {
		lists[t] = r.(*AlignPairReply).Records
	}
	return mergeRecords(jobs, lists)
}
