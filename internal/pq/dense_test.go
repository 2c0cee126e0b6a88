package pq

import (
	"math/rand"
	"testing"
)

// TestDenseMirrorsMax drives Dense and Max with the same random operation
// sequence and demands identical observable behaviour, including pop
// order (both break ties to the smaller id).
func TestDenseMirrorsMax(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		d := NewDense(n)
		m := NewMax(n)
		for op := 0; op < 2000; op++ {
			id := rng.Intn(n)
			switch rng.Intn(5) {
			case 0, 1:
				p := int64(rng.Intn(40) - 20)
				d.Push(id, p)
				m.Push(id, p)
			case 2:
				p := int64(rng.Intn(40) - 20)
				d.Update(id, p)
				m.Update(id, p)
			case 3:
				if d.Remove(id) != m.Remove(id) {
					t.Fatalf("seed %d op %d: Remove(%d) diverged", seed, op, id)
				}
			case 4:
				di, dp, dok := d.Pop()
				mi, mp, mok := m.Pop()
				if di != mi || dp != mp || dok != mok {
					t.Fatalf("seed %d op %d: Pop = (%d,%d,%v) vs (%d,%d,%v)", seed, op, di, dp, dok, mi, mp, mok)
				}
			}
			if d.Len() != m.Len() {
				t.Fatalf("seed %d op %d: Len %d vs %d", seed, op, d.Len(), m.Len())
			}
			if d.Contains(id) != m.Contains(id) {
				t.Fatalf("seed %d op %d: Contains(%d) diverged", seed, op, id)
			}
			dp, dok := d.Priority(id)
			mp, mok := m.Priority(id)
			if dp != mp || dok != mok {
				t.Fatalf("seed %d op %d: Priority(%d) diverged", seed, op, id)
			}
		}
		// Drain fully: pop order must match.
		for d.Len() > 0 {
			di, dp, _ := d.Pop()
			mi, mp, _ := m.Pop()
			if di != mi || dp != mp {
				t.Fatalf("seed %d drain: (%d,%d) vs (%d,%d)", seed, di, dp, mi, mp)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("seed %d: Max not drained", seed)
		}
	}
}

func TestDenseReset(t *testing.T) {
	d := NewDense(8)
	for i := 0; i < 8; i++ {
		d.Push(i, int64(i))
	}
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	for i := 0; i < 8; i++ {
		if d.Contains(i) {
			t.Fatalf("id %d still queued after Reset", i)
		}
	}
	d.Push(3, 7)
	if id, p, ok := d.Pop(); !ok || id != 3 || p != 7 {
		t.Fatalf("Pop after Reset = (%d,%d,%v)", id, p, ok)
	}
}

// TestWalkerMatchesPop: on random queues with many equal priorities, after
// mixed Push/Update/Remove calls, a walk yields exactly the ids and
// priorities successive Pops would, and leaves Len, Contains, Priority and
// the later Pop order untouched (walks that stop early included).
func TestWalkerMatchesPop(t *testing.T) {
	var w Walker
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		d := NewDense(n)
		for round := 0; round < 10; round++ {
			for op := rng.Intn(3 * n); op > 0; op-- {
				id := rng.Intn(n)
				p := int64(rng.Intn(8) - 4) // few distinct priorities: many ties
				switch rng.Intn(4) {
				case 0, 1:
					d.Push(id, p)
				case 2:
					d.Update(id, p)
				case 3:
					d.Remove(id)
				}
			}
			type state struct {
				prio int64
				in   bool
			}
			before := make([]state, n)
			for id := range before {
				before[id].prio, before[id].in = d.Priority(id)
			}
			length := d.Len()

			// A walk stopped part way, then a full one.
			w.Reset(d)
			for i := rng.Intn(length + 1); i > 0; i-- {
				if _, _, ok := w.Next(); !ok {
					t.Fatalf("seed %d round %d: walk ended early", seed, round)
				}
			}
			w.Reset(d)
			var walkIDs []int
			var walkPrios []int64
			for {
				id, p, ok := w.Next()
				if !ok {
					break
				}
				walkIDs = append(walkIDs, id)
				walkPrios = append(walkPrios, p)
			}
			if d.Len() != length || len(walkIDs) != length {
				t.Fatalf("seed %d round %d: Len %d, walked %d, want %d", seed, round, d.Len(), len(walkIDs), length)
			}
			for id, s := range before {
				p, in := d.Priority(id)
				if p != s.prio || in != s.in || d.Contains(id) != s.in {
					t.Fatalf("seed %d round %d: id %d changed by the walk", seed, round, id)
				}
			}

			// The pops of a copy give the same sequence; then the walked
			// queue itself pops it too.
			c := NewDense(n)
			for id, s := range before {
				if s.in {
					c.Push(id, s.prio)
				}
			}
			for _, q := range []*Dense{c, d} {
				for i := 0; i < length; i++ {
					id, p, ok := q.Pop()
					if !ok || id != walkIDs[i] || p != walkPrios[i] {
						t.Fatalf("seed %d round %d: pop %d = (%d,%d,%v), walk gave (%d,%d)", seed, round, i, id, p, ok, walkIDs[i], walkPrios[i])
					}
				}
			}
			// Refill for the next round's mixed operations.
			for id, s := range before {
				if s.in {
					d.Push(id, s.prio)
				}
			}
		}
	}
}
