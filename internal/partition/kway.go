package partition

import (
	"focus/internal/graph"
	"focus/internal/par"
	"focus/internal/pq"
)

// kWayRefine performs the global k-way Kernighan–Lin heuristic of paper
// §IV.D on one graph level: boundary nodes are queued by gain (external
// minus internal cost) and greedily moved to the neighbouring partition
// with the maximal external cost, subject to the node-weight balance
// bound (no move into Pj from Pi if w(Pj) >= Balance * w(Pi)). A pass
// stops after EarlyStop consecutive moves without improving the maximal
// partial gain sum; moves after the maximum are undone. Passes repeat
// until no improvement. The boundary/gain scan that seeds each pass runs
// on `workers` goroutines (<= 1: serial); the result is identical at any
// worker count. Returns the total edge-cut improvement.
func kWayRefine(g *graph.Graph, labels []int32, k int, opt Options, workers int) int64 {
	w := workers
	if w < 1 || g.NumNodes() < gainParMin {
		w = 1
	}
	shards := make([][]boundaryNode, w) // reused by every pass
	var total int64
	for {
		improved := kwayPass(g, labels, k, opt, shards)
		total += improved
		if improved <= 0 {
			return total
		}
	}
}

// boundaryNode is a node the k-way seed scan found on a partition
// boundary, with its gain.
type boundaryNode struct {
	v    int
	gain int64
}

// kwayPass runs one pass; the seed scan has one shard per entry of shards
// and stages its boundary nodes there.
func kwayPass(g *graph.Graph, labels []int32, k int, opt Options, shards [][]boundaryNode) int64 {
	balance := opt.Balance
	if balance <= 1 {
		balance = 1.03
	}
	earlyStop := opt.EarlyStop
	if earlyStop <= 0 {
		earlyStop = 50
	}
	n := g.NumNodes()

	// Balance is on partition cardinality, following the paper's literal
	// rule ("a node will not be moved to a partition Pj from a partition
	// Pi if |Pj| >= 1.03|Pi|"). Cardinality, not node weight, keeps the
	// rule equally permissive at cluster granularity (hybrid graph) and
	// at read granularity (overlap graph).
	partSize := make([]int64, k)
	for v := range labels {
		partSize[labels[v]]++
	}

	// Gain of a node = E - I over all partitions.
	gainOf := func(v int) int64 {
		var e, i int64
		for _, a := range g.Adj(v) {
			if labels[a.To] == labels[v] {
				i += a.W
			} else {
				e += a.W
			}
		}
		return e - i
	}

	// Seed the queue with every boundary node. The scan shards the node
	// range over workers; shard results are pushed in shard order, so the
	// queue is built by ascending node id at any worker count.
	q := pq.NewDense(n)
	w := len(shards)
	par.Run(w, w, func(_, p int) {
		lo, hi := par.Split(n, w, p)
		local := shards[p][:0]
		for v := lo; v < hi; v++ {
			for _, a := range g.Adj(v) {
				if labels[a.To] != labels[v] {
					local = append(local, boundaryNode{v, gainOf(v)})
					break
				}
			}
		}
		shards[p] = local
	})
	for _, sh := range shards {
		for _, c := range sh {
			q.Push(c.v, c.gain)
		}
	}

	type move struct {
		v        int
		from, to int32
	}
	var moves []move
	var cum, smax int64
	bestPrefix := 0
	sinceImprove := 0
	extern := make([]int64, k) // scratch: external cost per partition

	for q.Len() > 0 {
		v, _, _ := q.Pop()
		from := labels[v]
		for p := range extern {
			extern[p] = 0
		}
		var internal int64
		for _, a := range g.Adj(v) {
			if labels[a.To] == from {
				internal += a.W
			} else {
				extern[labels[a.To]] += a.W
			}
		}
		// Best destination by external cost, subject to balance.
		best := int32(-1)
		var bestE int64
		for p := int32(0); p < int32(k); p++ {
			if p == from || extern[p] == 0 {
				continue
			}
			if float64(partSize[p]+1) >= balance*float64(partSize[from]) {
				continue
			}
			if best == -1 || extern[p] > bestE {
				best, bestE = p, extern[p]
			}
		}
		if best == -1 {
			continue // locked out by balance; node stays (and is locked)
		}
		delta := bestE - internal // cut improvement of this move
		labels[v] = best
		partSize[from]--
		partSize[best]++
		moves = append(moves, move{v, from, best})
		cum += delta
		if cum > smax {
			smax = cum
			bestPrefix = len(moves)
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove >= earlyStop {
				break
			}
		}
		// Requeue unlocked boundary neighbours with refreshed gains.
		for _, a := range g.Adj(v) {
			if q.Contains(a.To) {
				q.Update(a.To, gainOf(a.To))
			}
		}
	}

	if smax <= 0 {
		bestPrefix = 0
		smax = 0
	}
	for i := len(moves) - 1; i >= bestPrefix; i-- {
		labels[moves[i].v] = moves[i].from
	}
	return smax
}
