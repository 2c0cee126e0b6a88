package pq

// Max is the original map-backed indexed max-heap, kept as the oracle
// TestDenseMirrorsMax drives Dense against: any non-negative id, int64
// priorities, ties broken by smaller id.
type Max struct {
	ids  []int         // heap of ids
	prio map[int]int64 // id -> priority
	pos  map[int]int   // id -> index in ids
}

// NewMax returns an empty queue with capacity hint n.
func NewMax(n int) *Max {
	return &Max{
		ids:  make([]int, 0, n),
		prio: make(map[int]int64, n),
		pos:  make(map[int]int, n),
	}
}

// Len returns the number of queued items.
func (q *Max) Len() int { return len(q.ids) }

// Contains reports whether id is queued.
func (q *Max) Contains(id int) bool {
	_, ok := q.pos[id]
	return ok
}

// Priority returns the priority of id and whether it is queued.
func (q *Max) Priority(id int) (int64, bool) {
	p, ok := q.prio[id]
	return p, ok
}

// Push inserts id with the given priority, or updates its priority if it is
// already queued.
func (q *Max) Push(id int, priority int64) {
	if _, ok := q.pos[id]; ok {
		q.Update(id, priority)
		return
	}
	q.prio[id] = priority
	q.pos[id] = len(q.ids)
	q.ids = append(q.ids, id)
	q.up(len(q.ids) - 1)
}

// Update changes the priority of a queued id. It is a no-op for absent ids.
func (q *Max) Update(id int, priority int64) {
	i, ok := q.pos[id]
	if !ok {
		return
	}
	old := q.prio[id]
	if old == priority {
		return
	}
	q.prio[id] = priority
	if priority > old {
		q.up(i)
	} else {
		q.down(i)
	}
}

// Pop removes and returns the id with the greatest priority.
func (q *Max) Pop() (id int, priority int64, ok bool) {
	if len(q.ids) == 0 {
		return 0, 0, false
	}
	id = q.ids[0]
	priority = q.prio[id]
	q.removeAt(0)
	return id, priority, true
}

// Remove deletes id from the queue if present, reporting whether it was.
func (q *Max) Remove(id int) bool {
	i, ok := q.pos[id]
	if !ok {
		return false
	}
	q.removeAt(i)
	return true
}

func (q *Max) removeAt(i int) {
	id := q.ids[i]
	last := len(q.ids) - 1
	q.swap(i, last)
	q.ids = q.ids[:last]
	delete(q.pos, id)
	delete(q.prio, id)
	if i < last {
		q.down(i)
		q.up(i)
	}
}

// less orders heap slots: greater priority first, then smaller id.
func (q *Max) less(i, j int) bool {
	a, b := q.ids[i], q.ids[j]
	pa, pb := q.prio[a], q.prio[b]
	if pa != pb {
		return pa > pb
	}
	return a < b
}

func (q *Max) swap(i, j int) {
	q.ids[i], q.ids[j] = q.ids[j], q.ids[i]
	q.pos[q.ids[i]] = i
	q.pos[q.ids[j]] = j
}

func (q *Max) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Max) down(i int) {
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
