// Package partition implements the multilevel graph partitioning of paper
// §IV: greedy graph growing for initial bisections, Kernighan–Lin pairwise
// refinement with dual priority queues and diagonal scanning, recursive
// bisection with its natural 2^i-way parallelism, projection of partitions
// through the graph set, and a final global k-way Kernighan–Lin
// refinement per level.
package partition

import (
	"math/rand"

	"focus/internal/graph"
	"focus/internal/pq"
)

// Options tune the partitioner. The defaults mirror the constants the
// paper states explicitly.
type Options struct {
	K int // number of partitions; must be a power of two (paper §IV)
	// Procs bounds the number of concurrently processed bisection
	// regions/levels (the paper's processor count). <= 0 means use K/2.
	Procs int
	// Balance is the edge/node-weight imbalance bound (paper: 1.03).
	Balance float64
	// EarlyStop terminates a KL pass after this many consecutive
	// non-improving moves (paper: 50).
	EarlyStop int
	// SkipKWay disables the final global k-way refinement (ablation).
	SkipKWay bool
	Seed     int64
}

// DefaultOptions returns the paper's configuration for k partitions.
func DefaultOptions(k int) Options {
	return Options{K: k, Balance: 1.03, EarlyStop: 50, Seed: 1}
}

// greedyGrow bisects the nodes of g currently labeled `region` at the
// given level: roughly half (by node weight) keep `region`, the rest are
// relabeled `newLabel`. Partition growth alternates between the two sides
// whenever the growing side's internal edge weight exceeds Balance times
// the other's, per paper §IV.A. Side assignments and the two gain queues
// live in the region's scratch (sc.side, sc.qa, sc.qb) and are restored
// to their idle state before returning.
func greedyGrow(g *graph.Graph, labels []int32, region, newLabel int32, opt Options, rng *rand.Rand, sc *klScratch) {
	nodes := sc.members[:0]
	for v := range labels {
		if loadLabel(&labels[v]) == region {
			nodes = append(nodes, v)
		}
	}
	sc.members = nodes[:0]
	if len(nodes) < 2 {
		return
	}
	var totalNW int64
	for _, v := range nodes {
		totalNW += g.NodeWeight(v)
	}
	half := totalNW / 2

	// side: -1 outside the region, 0 unassigned, 1 stays `region`,
	// 2 becomes `newLabel`.
	side := sc.side
	for _, v := range nodes {
		side[v] = 0
	}
	queues := [3]*pq.Dense{nil, sc.qa, sc.qb}
	var ew, nw [3]int64

	// conn returns v's connection weight into side s (region nodes only).
	conn := func(v int, s int8) int64 {
		var c int64
		for _, a := range g.Adj(v) {
			if side[a.To] == s {
				c += a.W
			}
		}
		return c
	}
	// gain of assigning v to side s: weight into s minus weight to region
	// nodes not in s (paper §IV.A's gvz).
	gain := func(v int, s int8) int64 {
		var in, out int64
		for _, a := range g.Adj(v) {
			sv := side[a.To]
			if sv < 0 {
				continue
			}
			if sv == s {
				in += a.W
			} else {
				out += a.W
			}
		}
		return in - out
	}

	unassigned := len(nodes)
	assign := func(v int, s int8) {
		side[v] = s
		ew[s] += conn(v, s)
		nw[s] += g.NodeWeight(v)
		unassigned--
		queues[1].Remove(v)
		queues[2].Remove(v)
		// Refresh horizon gains of unassigned neighbours.
		for _, a := range g.Adj(v) {
			if side[a.To] == 0 {
				for _, qs := range [2]int8{1, 2} {
					if queues[qs].Contains(a.To) {
						queues[qs].Update(a.To, gain(a.To, qs))
					}
				}
				if s == 1 || s == 2 {
					queues[s].Push(a.To, gain(a.To, s))
				}
			}
		}
	}

	seedInto := func(s int8) bool {
		// Deterministic-ish random seed: sample until an unassigned node.
		for tries := 0; tries < 4*len(nodes); tries++ {
			v := nodes[rng.Intn(len(nodes))]
			if side[v] == 0 {
				assign(v, s)
				return true
			}
		}
		for _, v := range nodes {
			if side[v] == 0 {
				assign(v, s)
				return true
			}
		}
		return false
	}

	cur := int8(1)
	for unassigned > 0 && nw[1] < half && nw[2] < half {
		v, _, ok := queues[cur].Pop()
		for ok && side[v] != 0 {
			v, _, ok = queues[cur].Pop()
		}
		if !ok {
			if !seedInto(cur) {
				break
			}
		} else {
			assign(v, cur)
		}
		other := 3 - cur
		if float64(ew[cur]) > opt.Balance*float64(ew[other]) {
			cur = other
		}
	}
	// Remaining nodes go to the side with the smaller node weight.
	rest := int8(1)
	if nw[2] < nw[1] {
		rest = 2
	}
	for _, v := range nodes {
		if side[v] == 0 {
			side[v] = rest
			nw[rest] += g.NodeWeight(v)
		}
	}
	// Guarantee both sides non-empty.
	if nw[1] == 0 || nw[2] == 0 {
		empty, full := int8(1), int8(2)
		if nw[2] == 0 {
			empty, full = 2, 1
		}
		// Move the lightest node across.
		bestV, bestW := -1, int64(0)
		for _, v := range nodes {
			if side[v] == full && (bestV == -1 || g.NodeWeight(v) < bestW) {
				bestV, bestW = v, g.NodeWeight(v)
			}
		}
		if bestV != -1 {
			side[bestV] = empty
		}
	}
	for _, v := range nodes {
		if side[v] == 2 {
			storeLabel(&labels[v], newLabel)
		}
		side[v] = -1
	}
	sc.qa.Reset()
	sc.qb.Reset()
}
