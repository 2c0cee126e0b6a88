// Package coarsen implements graph coarsening by heavy-edge matching and
// node merging (Karypis & Kumar, the paper's reference [15]), producing
// the multilevel graph set G = {G0, G1, …, Gn} of paper §II.C: each level
// is formed by finding a matching on the previous level and merging the
// endpoints of every matched edge.
//
// Matching runs as a sharded, round-based "local-max" algorithm: every
// unmatched node proposes its heaviest live incident edge under a seeded
// total edge order, mutual proposals are claimed with atomic CAS, and
// rounds repeat until the matching is maximal. Because proposals are
// computed from a barrier-separated snapshot and the edge order is a pure
// function of (seed, endpoints, weight), the matching is byte-identical
// at any worker count — the determinism contract the equivalence tests
// enforce.
package coarsen

import (
	"context"
	"sync/atomic"

	"focus/internal/graph"
	"focus/internal/par"
)

// Options control when coarsening stops.
type Options struct {
	// MaxLevels caps the number of coarsening rounds (the paper's data
	// sets produced ten graph levels; 10 is the default).
	MaxLevels int
	// MinNodes stops coarsening once the coarsest graph is at most this
	// large.
	MinNodes int
	// MinShrink stops coarsening when a round shrinks the node count by
	// less than this factor (e.g. 0.05 requires each round to remove at
	// least 5% of nodes).
	MinShrink float64
	// Seed drives the tie-break priorities of heavy-edge matching. For a
	// fixed seed the multilevel set is identical at any pool width.
	Seed int64
}

// DefaultOptions mirror the paper's setup.
func DefaultOptions() Options {
	return Options{MaxLevels: 10, MinNodes: 32, MinShrink: 0.05, Seed: 1}
}

// splitmix64 is the SplitMix64 finalizer, used to derive per-node
// tie-break priorities from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// edgeKey is the seeded total order on edges: weight first, then a
// symmetric hash of the endpoint priorities, then the canonical id pair.
// Both endpoints of an edge compute the same key, so the globally maximal
// live edge is a mutual proposal every round (guaranteeing progress).
type edgeKey struct {
	w      int64
	h      uint64
	lo, hi int32
}

func makeEdgeKey(w int64, pv, pu uint64, v, u int) edgeKey {
	lo, hi := int32(v), int32(u)
	if lo > hi {
		lo, hi = hi, lo
	}
	return edgeKey{w: w, h: splitmix64(pv ^ pu), lo: lo, hi: hi}
}

func (k edgeKey) greater(o edgeKey) bool {
	if k.w != o.w {
		return k.w > o.w
	}
	if k.h != o.h {
		return k.h > o.h
	}
	if k.lo != o.lo {
		return k.lo < o.lo
	}
	return k.hi < o.hi
}

// heavyEdgeMatchingPar computes a maximal heavy-edge matching with the
// sharded round-based algorithm. The result is a pure function of
// (g, seed): identical at any worker count (width 1 runs the same rounds
// inline through par.Run). The gate is polled at round boundaries (a round
// is the natural grain — proposals snapshot the matching, so abandoning
// mid-round would be wasted, not wrong). A stopped gate returns nil;
// ctx-taking callers turn that into an error.
func heavyEdgeMatchingPar(g *graph.Graph, seed int64, workers int, gate *par.Gate) []int {
	n := g.NumNodes()
	// Matching rounds break even at ~2048 nodes per worker; below that the
	// governor keeps the rounds serial (same code, one shard).
	w := par.Workers(workers, n, 2048)

	pri := make([]uint64, n)
	for v := range pri {
		pri[v] = splitmix64(uint64(seed) + uint64(v)*0x9e3779b97f4a7c15)
	}
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	prop := make([]int32, n)

	propose := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			prop[v] = -1
			if match[v] != -1 {
				continue
			}
			best := int32(-1)
			var bestKey edgeKey
			for _, a := range g.Adj(v) {
				if match[a.To] != -1 {
					continue
				}
				k := makeEdgeKey(a.W, pri[v], pri[a.To], v, a.To)
				if best == -1 || k.greater(bestKey) {
					best, bestKey = int32(a.To), k
				}
			}
			prop[v] = best
		}
	}
	// resolve claims mutual proposals. Only the smaller endpoint writes,
	// so pairs (which are disjoint — each node has one proposal) never
	// race; the CAS guards the claim and the partner slot is stored
	// atomically for the concurrent readers in other shards.
	resolve := func(lo, hi int) int {
		claimed := 0
		for v := lo; v < hi; v++ {
			u := prop[v]
			if u < 0 || int(u) < v {
				continue
			}
			if atomic.LoadInt32(&match[v]) != -1 || prop[u] != int32(v) {
				continue
			}
			if atomic.CompareAndSwapInt32(&match[v], -1, u) {
				atomic.StoreInt32(&match[u], int32(v))
				claimed++
			}
		}
		return claimed
	}

	counts := make([]int, w)
	for {
		if gate.Stopped() {
			return nil
		}
		par.Run(w, w, func(_, p int) {
			propose(par.Split(n, w, p))
		})
		par.Run(w, w, func(_, p int) {
			counts[p] = resolve(par.Split(n, w, p))
		})
		claimed := 0
		for _, c := range counts {
			claimed += c
		}
		if claimed == 0 {
			break
		}
	}

	out := make([]int, n)
	for v := range out {
		out[v] = int(match[v])
	}
	return out
}

// contractParCtx merges matched node pairs into single nodes, producing
// the next coarser graph and the up-map (up[v] = v's node in the coarse
// graph). Merged node weights are summed; parallel edges are combined by
// summing; edges internal to a merged pair disappear. The per-coarse-node
// merge runs on a pool of workers (<= 0 lets the par governor size it).
// Identical output at any worker count.
func contractParCtx(ctx context.Context, g *graph.Graph, match []int, workers int) (*graph.Graph, []int, error) {
	n := g.NumNodes()
	// Coarse ids are assigned in fine-node order: deterministic and
	// inherently serial, but O(n) and cheap next to the edge merge.
	up := make([]int, n)
	for i := range up {
		up[i] = -1
	}
	next := 0
	for v := 0; v < n; v++ {
		if up[v] != -1 {
			continue
		}
		up[v] = next
		if m := match[v]; m != -1 {
			up[m] = next
		}
		next++
	}
	coarse, err := graph.ContractCtx(ctx, g, up, next, workers)
	if err != nil {
		return nil, nil, err
	}
	return coarse, up, nil
}

// Multilevel coarsens g0 into a multilevel graph set. Levels[0] is g0.
// For a fixed Options.Seed the set is identical at any pool width.
func Multilevel(g0 *graph.Graph, opt Options) *graph.Set {
	set, _ := MultilevelCtx(nil, g0, opt)
	return set
}

// MultilevelCtx is Multilevel bounded by ctx: a cancel abandons the
// coarsening at the next matching round, contraction chunk, or level
// boundary and returns the context's cause. A nil ctx never cancels.
func MultilevelCtx(ctx context.Context, g0 *graph.Graph, opt Options) (*graph.Set, error) {
	return multilevel(ctx, g0, opt, 0)
}

// multilevel is MultilevelCtx with the matching/contraction pools bounded
// by workers (<= 0 lets the par governor size them).
func multilevel(ctx context.Context, g0 *graph.Graph, opt Options, workers int) (*graph.Set, error) {
	gate := par.GateFor(ctx)
	if opt.MaxLevels <= 0 {
		opt.MaxLevels = 1
	}
	set := &graph.Set{Levels: []*graph.Graph{g0}}
	cur := g0
	for level := 1; level < opt.MaxLevels; level++ {
		if cur.NumNodes() <= opt.MinNodes {
			break
		}
		match := heavyEdgeMatchingPar(cur, opt.Seed+int64(level)*1_000_003, workers, gate)
		if match == nil {
			return nil, gate.Err()
		}
		coarse, up, err := contractParCtx(ctx, cur, match, workers)
		if err != nil {
			return nil, err
		}
		shrink := 1 - float64(coarse.NumNodes())/float64(cur.NumNodes())
		if shrink < opt.MinShrink {
			break
		}
		set.Levels = append(set.Levels, coarse)
		set.Up = append(set.Up, up)
		cur = coarse
	}
	return set, nil
}
