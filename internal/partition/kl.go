package partition

import (
	"math/rand"

	"focus/internal/graph"
	"focus/internal/par"
	"focus/internal/pq"
)

// gainParMin is the node count below which gain-initialization scans run
// serially even when the task's width allows more.
const gainParMin = 2048

// swapSelector is the pair selection klPass runs: selectSwap, which tests
// swap for the pop-and-push-back oracle it replaced.
var swapSelector = selectSwap

// klScratch is the dense per-region scratch state of the refinement
// machinery: D values, membership bitmaps and the two priority queues are
// flat arrays indexed by node id (allocated once per bisection region at
// the finest level's size and reused down the whole level chain),
// replacing the former map-based representation. One scratch is owned by
// exactly one region goroutine at a time — never shared.
type klScratch struct {
	workers int       // gain-scan parallelism; 1 = serial
	d       []int64   // D_v = E_v - I_v, valid where in[v]
	in      []bool    // membership of the current {la,lb} universe
	side    []int8    // greedyGrow: -1 outside region, 0 unassigned, 1, 2
	members []int     // nodes of the current universe, ascending ids
	qa, qb  *pq.Dense // gain queues (Dense: array-backed, map-free)
	wa, wb  pq.Walker // read-only pop-order walks of qa, qb
	listA   []int     // diagonal-scan prefixes of qa, qb in pop order
	listB   []int
	pairH   []pairItem
	seen    map[[2]int]bool
	shards  [][]int    // per-worker member lists for parallel gain init
	moves   []klMove   // one KL pass's swaps, in order
	rng     *rand.Rand // greedy growing's draws, reseeded per region
}

// klMove is one swap of a KL pass: a moved from la to lb, b the reverse.
type klMove struct{ a, b int }

func newKLScratch(n, workers int) *klScratch {
	if workers < 1 {
		workers = 1
	}
	sc := &klScratch{
		workers: workers,
		d:       make([]int64, n),
		in:      make([]bool, n),
		side:    make([]int8, n),
		qa:      pq.NewDense(n),
		qb:      pq.NewDense(n),
		seen:    make(map[[2]int]bool),
		shards:  make([][]int, workers),
		rng:     rand.New(rand.NewSource(0)),
	}
	for i := range sc.side {
		sc.side[i] = -1
	}
	return sc
}

// initD fills d/in/members for every node of universe (ascending ids)
// labeled la or lb. The scan (the partitioner's gain initialization) fans
// out over worker shards: shard results concatenate in shard order, so
// members stays ascending and the result is identical at any worker
// count.
func (sc *klScratch) initD(g *graph.Graph, labels []int32, universe []int32, la, lb int32) {
	n := len(universe)
	sc.members = sc.members[:0]
	w := sc.workers
	if n < gainParMin {
		w = 1
	}
	if len(sc.shards) < w {
		sc.shards = make([][]int, w)
	}
	sc.shards[0] = sc.members // shard 0 fills members in place
	par.Run(w, w, func(_, p int) {
		lo, hi := par.Split(n, w, p)
		members := sc.shards[p][:0]
		for _, u := range universe[lo:hi] {
			v := int(u)
			lv := loadLabel(&labels[v])
			if lv != la && lv != lb {
				continue
			}
			var e, i int64
			for _, a := range g.Adj(v) {
				switch loadLabel(&labels[a.To]) {
				case lv:
					i += int64(a.W)
				case la, lb:
					e += int64(a.W)
				}
			}
			sc.d[v] = e - i
			sc.in[v] = true
			members = append(members, v)
		}
		sc.shards[p] = members
	})
	sc.members = sc.shards[0]
	for _, sh := range sc.shards[1:w] {
		sc.members = append(sc.members, sh...)
	}
}

// release clears the universe state installed by initD.
func (sc *klScratch) release() {
	for _, v := range sc.members {
		sc.in[v] = false
	}
	sc.members = sc.members[:0]
	sc.qa.Reset()
	sc.qb.Reset()
}

// klBisect refines the bisection {la, lb} of g with the Kernighan–Lin
// pair-swap algorithm of paper §IV.B, over the nodes of universe
// (ascending ids) labeled la or lb: nodes are kept in two priority queues
// ordered by D value (external minus internal cost), candidate pairs are
// enumerated by diagonal scanning in decreasing D_a + D_b until the bound
// D_a + D_b <= gmax proves no better pair exists, the best pair is
// swapped and locked, and the move sequence is truncated at its maximal
// partial gain sum. Passes repeat until no positive improvement remains.
// Edges to nodes labeled neither la nor lb are cut regardless of the
// refinement and are ignored. Returns the total edge-cut improvement.
func klBisect(g *graph.Graph, labels []int32, universe []int32, la, lb int32, opt Options, sc *klScratch) int64 {
	var total int64
	for {
		improved := klPass(g, labels, universe, la, lb, opt, sc)
		total += improved
		if improved <= 0 {
			return total
		}
	}
}

// pairItem enumerates diagonal-scan index pairs in decreasing key order
// via an allocation-free manual max-heap (no container/heap boxing).
type pairItem struct {
	i, j int
	key  int64
}

func pairPush(h *[]pairItem, it pairItem) {
	*h = append(*h, it)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if a[parent].key >= a[i].key {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
}

func pairPop(h *[]pairItem) pairItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(a) && a[l].key > a[best].key {
			best = l
		}
		if r < len(a) && a[r].key > a[best].key {
			best = r
		}
		if best == i {
			break
		}
		a[i], a[best] = a[best], a[i]
		i = best
	}
	return top
}

// klPass performs one KL pass and returns the realized improvement.
func klPass(g *graph.Graph, labels []int32, universe []int32, la, lb int32, opt Options, sc *klScratch) int64 {
	sc.initD(g, labels, universe, la, lb)
	defer sc.release()
	for _, v := range sc.members {
		if loadLabel(&labels[v]) == la {
			sc.qa.Push(v, sc.d[v])
		} else {
			sc.qb.Push(v, sc.d[v])
		}
	}
	qa, qb := sc.qa, sc.qb
	if qa.Len() == 0 || qb.Len() == 0 {
		return 0
	}

	moves := sc.moves[:0]
	var cum, smax int64
	bestPrefix := 0
	sinceImprove := 0
	earlyStop := opt.EarlyStop
	if earlyStop <= 0 {
		earlyStop = 50
	}

	for qa.Len() > 0 && qb.Len() > 0 {
		a, b, gain, ok := swapSelector(g, sc)
		if !ok {
			break
		}
		// Swap and lock.
		storeLabel(&labels[a], lb)
		storeLabel(&labels[b], la)
		qa.Remove(a)
		qb.Remove(b)
		// Update D of unlocked nodes adjacent to a or b. Moving a from
		// la to lb changes, for an unlocked v in la: D_v += 2w(v,a);
		// in lb: D_v -= 2w(v,a). Symmetrically for b.
		update := func(moved int, from int32) {
			for _, arc := range g.Adj(moved) {
				v := int(arc.To)
				if !sc.in[v] {
					continue
				}
				inA := qa.Contains(v)
				if !inA && !qb.Contains(v) {
					continue // locked
				}
				var delta int64
				if loadLabel(&labels[v]) == from {
					delta = 2 * int64(arc.W)
				} else {
					delta = -2 * int64(arc.W)
				}
				sc.d[v] += delta
				if inA {
					qa.Update(v, sc.d[v])
				} else {
					qb.Update(v, sc.d[v])
				}
			}
		}
		update(a, la)
		update(b, lb)

		moves = append(moves, klMove{a, b})
		cum += gain
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
	}

	sc.moves = moves
	// Undo moves after the maximal partial sum (all of them if smax <= 0).
	if smax <= 0 {
		bestPrefix = 0
		smax = 0
	}
	for i := len(moves) - 1; i >= bestPrefix; i-- {
		storeLabel(&labels[moves[i].a], la)
		storeLabel(&labels[moves[i].b], lb)
	}
	return smax
}

// selectSwap picks the unlocked pair (a in qa, b in qb) with the maximal
// swap gain D_a + D_b - 2w(a,b), using the diagonal scan over pairs in
// decreasing D_a + D_b; the scan stops once D_a + D_b <= gmax, which
// bounds every remaining pair's gain. listA and listB are the queues'
// prefixes in pop order, read by walkers that leave the queues as they
// are.
func selectSwap(g *graph.Graph, sc *klScratch) (a, b int, gain int64, ok bool) {
	sc.wa.Reset(sc.qa)
	sc.wb.Reset(sc.qb)
	listA, listB := sc.listA[:0], sc.listB[:0]
	defer func() { sc.listA, sc.listB = listA, listB }()
	ensure := func(w *pq.Walker, list *[]int, n int) bool {
		for len(*list) <= n {
			id, _, ok := w.Next()
			if !ok {
				return false
			}
			*list = append(*list, id)
		}
		return true
	}

	if !ensure(&sc.wa, &listA, 0) || !ensure(&sc.wb, &listB, 0) {
		return 0, 0, 0, false
	}
	h := sc.pairH[:0]
	seen := sc.seen
	clear(seen)
	seen[[2]int{0, 0}] = true
	pairPush(&h, pairItem{0, 0, sc.d[listA[0]] + sc.d[listB[0]]})
	bestGain := int64(0)
	found := false
	for len(h) > 0 {
		top := pairPop(&h)
		if found && top.key <= bestGain {
			break // no remaining pair can beat bestGain
		}
		va, vb := listA[top.i], listB[top.j]
		gnow := top.key - 2*g.EdgeWeight(va, vb)
		if !found || gnow > bestGain {
			found, bestGain, a, b = true, gnow, va, vb
		}
		// Expand the frontier.
		if ensure(&sc.wa, &listA, top.i+1) && !seen[[2]int{top.i + 1, top.j}] {
			seen[[2]int{top.i + 1, top.j}] = true
			pairPush(&h, pairItem{top.i + 1, top.j, sc.d[listA[top.i+1]] + sc.d[listB[top.j]]})
		}
		if ensure(&sc.wb, &listB, top.j+1) && !seen[[2]int{top.i, top.j + 1}] {
			seen[[2]int{top.i, top.j + 1}] = true
			pairPush(&h, pairItem{top.i, top.j + 1, sc.d[listA[top.i]] + sc.d[listB[top.j+1]]})
		}
	}
	sc.pairH = h
	return a, b, bestGain, found
}
