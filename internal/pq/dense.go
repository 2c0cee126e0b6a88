// Package pq implements an indexed, updatable max-priority queue keyed by
// dense integer ids. It backs the gain queues of the greedy graph growing
// algorithm and the D-value queues of the Kernighan–Lin refinement pass
// (paper §IV.A–B), both of which need O(log n) priority updates addressed
// by node id.
package pq

// Dense is an indexed max-heap over ids in [0, n): each item carries an
// int64 priority, and id->priority / id->position are flat arrays, so the
// partitioner's hot queues do no per-operation hashing or allocation.
// Ties are broken by smaller id so heap order is deterministic for a
// given insertion set.
type Dense struct {
	ids  []int32 // heap of ids
	prio []int64 // by id; valid only while queued
	pos  []int32 // by id; -1 = absent
}

// NewDense returns an empty queue accepting ids in [0, n).
func NewDense(n int) *Dense {
	d := &Dense{prio: make([]int64, n), pos: make([]int32, n)}
	for i := range d.pos {
		d.pos[i] = -1
	}
	return d
}

// Reset empties the queue in O(len) without releasing storage.
func (q *Dense) Reset() {
	for _, id := range q.ids {
		q.pos[id] = -1
	}
	q.ids = q.ids[:0]
}

// Len returns the number of queued items.
func (q *Dense) Len() int { return len(q.ids) }

// Contains reports whether id is queued.
func (q *Dense) Contains(id int) bool { return q.pos[id] >= 0 }

// Priority returns the priority of id and whether it is queued.
func (q *Dense) Priority(id int) (int64, bool) {
	if q.pos[id] < 0 {
		return 0, false
	}
	return q.prio[id], true
}

// Push inserts id with the given priority, or updates its priority if it
// is already queued.
func (q *Dense) Push(id int, priority int64) {
	if q.pos[id] >= 0 {
		q.Update(id, priority)
		return
	}
	q.prio[id] = priority
	q.pos[id] = int32(len(q.ids))
	q.ids = append(q.ids, int32(id))
	q.up(len(q.ids) - 1)
}

// Update changes the priority of a queued id. It is a no-op for absent ids.
func (q *Dense) Update(id int, priority int64) {
	i := q.pos[id]
	if i < 0 {
		return
	}
	old := q.prio[id]
	if old == priority {
		return
	}
	q.prio[id] = priority
	if priority > old {
		q.up(int(i))
	} else {
		q.down(int(i))
	}
}

// Pop removes and returns the id with the greatest priority.
func (q *Dense) Pop() (id int, priority int64, ok bool) {
	if len(q.ids) == 0 {
		return 0, 0, false
	}
	id = int(q.ids[0])
	priority = q.prio[id]
	q.removeAt(0)
	return id, priority, true
}

// Remove deletes id from the queue if present, reporting whether it was.
func (q *Dense) Remove(id int) bool {
	i := q.pos[id]
	if i < 0 {
		return false
	}
	q.removeAt(int(i))
	return true
}

func (q *Dense) removeAt(i int) {
	id := q.ids[i]
	last := len(q.ids) - 1
	q.swap(i, last)
	q.ids = q.ids[:last]
	q.pos[id] = -1
	if i < last {
		q.down(i)
		q.up(i)
	}
}

// less orders heap slots: greater priority first, then smaller id.
func (q *Dense) less(i, j int) bool {
	a, b := q.ids[i], q.ids[j]
	pa, pb := q.prio[a], q.prio[b]
	if pa != pb {
		return pa > pb
	}
	return a < b
}

func (q *Dense) swap(i, j int) {
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.pos[q.ids[i]] = int32(i)
	q.pos[q.ids[j]] = int32(j)
}

func (q *Dense) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Dense) down(i int) {
	n := len(q.ids)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.less(l, best) {
			best = l
		}
		if r < n && q.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		q.swap(i, best)
		i = best
	}
}
