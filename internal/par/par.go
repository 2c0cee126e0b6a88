// Package par is the adaptive parallelism governor shared by the
// graph-construction stages (overlap worker pool, CSR build, coarsening,
// hybrid layout, partitioning). It makes one decision, in one place:
// given the input size and the host's GOMAXPROCS, is a parallel worker
// pool worth its fan-out cost, and if so how wide should it be?
//
// Two rules fall out of the measured regressions this package exists to
// fix:
//
//   - Never oversubscribe. Every pool — including explicitly configured
//     ones — is capped at runtime.GOMAXPROCS(0). A worker count above the
//     CPU count only adds goroutines that wait for a core; on a
//     single-CPU host it turns every "parallel" stage into serial plus
//     scheduling overhead.
//
//   - Never fan out below the grain. In auto mode a stage runs serially
//     unless every worker would receive at least `grain` items, where
//     grain is the stage's own measured break-even size (e.g. 4096 edges
//     for the CSR build, 2048 nodes for matching rounds). GOMAXPROCS==1
//     is always serial: there is no second core for the pool to win on.
//
// Stages that must never change results by worker count (all of them —
// the determinism contract) remain free to honor an explicit request on
// multi-core hosts; tests that need to force the parallel code paths on a
// small host raise GOMAXPROCS (scripts/race.sh exports GOMAXPROCS=4).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Limit caps an explicitly requested worker count at GOMAXPROCS(0);
// requested <= 0 resolves to GOMAXPROCS(0) itself. The result is always
// >= 1. Use it to size pre-allocated per-worker state (scratch arrays,
// semaphores) before the per-invocation size is known.
func Limit(requested int) int {
	p := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > p {
		return p
	}
	return requested
}

// Blocks splits size items into contiguous fixed-grain blocks for
// deterministic block-indexed fan-out. The block structure depends only
// on size and grain — never on the worker count — so a stage that stages
// its output per block and assembles the blocks in index order produces
// identical results at any parallelism (the contract the assembly
// cleaning scans rely on). Block b covers items
// [b*grain, min(size, (b+1)*grain)); the returned count is 0 only when
// size <= 0.
func Blocks(size, grain int) int {
	if size <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (size + grain - 1) / grain
}

// Run executes fn(worker, item) for every item in [0, n), fanned out
// over `workers` goroutines (already resolved via Workers/Limit; values
// <= 1 run inline with worker id 0). Items are claimed dynamically via an
// atomic cursor, so the mapping of items to workers is racy — fn must
// stage per-item output (e.g. into a caller-owned slot per item or per
// par.Blocks block) for the enclosing stage to stay deterministic. Run
// returns when every item has been processed.
func Run(workers, n int, fn func(worker, item int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Workers resolves the worker count for one stage invocation over `size`
// items with per-worker break-even `grain`.
//
// requested > 0 is an explicit configuration: it is honored as the pool
// bound but still capped at GOMAXPROCS(0) and at size — workers beyond
// either are idle by construction.
//
// requested <= 0 is auto: serial when the host has a single CPU or when
// size < grain; otherwise ceil(size/grain) workers so each gets at least
// ~grain items, capped at GOMAXPROCS(0).
func Workers(requested, size, grain int) int {
	p := runtime.GOMAXPROCS(0)
	if requested > 0 {
		w := requested
		if w > p {
			w = p
		}
		if size > 0 && w > size {
			w = size
		}
		return w
	}
	if grain < 1 {
		grain = 1
	}
	if p == 1 || size < grain {
		return 1
	}
	w := (size + grain - 1) / grain
	if w > p {
		w = p
	}
	if w < 1 {
		w = 1
	}
	return w
}
