package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := NewDense(4)
	if q.Len() != 0 {
		t.Errorf("Len = %d", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue ok")
	}
	if q.Remove(3) {
		t.Error("Remove on empty queue true")
	}
}

func TestPushPopOrder(t *testing.T) {
	q := NewDense(10)
	q.Push(1, 10)
	q.Push(2, 30)
	q.Push(3, 20)
	var got []int
	for q.Len() > 0 {
		id, _, _ := q.Pop()
		got = append(got, id)
	}
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestTieBreakById(t *testing.T) {
	q := NewDense(10)
	q.Push(9, 5)
	q.Push(2, 5)
	q.Push(7, 5)
	var got []int
	for q.Len() > 0 {
		id, _, _ := q.Pop()
		got = append(got, id)
	}
	want := []int{2, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestUpdate(t *testing.T) {
	q := NewDense(100)
	q.Push(1, 10)
	q.Push(2, 20)
	q.Update(1, 30)
	if id, p, _ := q.Pop(); id != 1 || p != 30 {
		t.Errorf("after raising: pop = (%d,%d)", id, p)
	}
	q.Push(1, 30)
	q.Update(1, 5)
	if id, _, _ := q.Pop(); id != 2 {
		t.Errorf("after lowering: pop id = %d, want 2", id)
	}
	q.Push(2, 20)
	q.Update(99, 1) // absent: no-op
	if q.Len() != 2 {
		t.Errorf("Len after no-op update = %d", q.Len())
	}
}

func TestPushExistingUpdates(t *testing.T) {
	q := NewDense(2)
	q.Push(1, 10)
	q.Push(1, 99)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if p, _ := q.Priority(1); p != 99 {
		t.Errorf("Priority = %d, want 99", p)
	}
}

func TestRemove(t *testing.T) {
	q := NewDense(10)
	for i := 0; i < 10; i++ {
		q.Push(i, int64(i))
	}
	if !q.Remove(9) || !q.Remove(0) || !q.Remove(5) {
		t.Fatal("Remove returned false for present id")
	}
	if q.Remove(5) {
		t.Fatal("Remove returned true for absent id")
	}
	if q.Contains(5) || !q.Contains(4) {
		t.Fatal("Contains wrong after Remove")
	}
	var got []int
	for q.Len() > 0 {
		id, _, _ := q.Pop()
		got = append(got, id)
	}
	want := []int{8, 7, 6, 4, 3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestAgainstReference drives the queue with random operations and compares
// against a brute-force reference implementation.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewDense(40)
	ref := map[int]int64{}
	refMax := func() (int, int64, bool) {
		best, bestP, ok := 0, int64(0), false
		for id, p := range ref {
			if !ok || p > bestP || (p == bestP && id < best) {
				best, bestP, ok = id, p, true
			}
		}
		return best, bestP, ok
	}
	for op := 0; op < 5000; op++ {
		id := rng.Intn(40)
		switch rng.Intn(4) {
		case 0:
			p := int64(rng.Intn(100) - 50)
			q.Push(id, p)
			ref[id] = p
		case 1:
			if _, ok := ref[id]; ok {
				p := int64(rng.Intn(100) - 50)
				q.Update(id, p)
				ref[id] = p
			}
		case 2:
			got := q.Remove(id)
			_, want := ref[id]
			if got != want {
				t.Fatalf("op %d: Remove(%d) = %v, want %v", op, id, got, want)
			}
			delete(ref, id)
		case 3:
			gid, gp, gok := q.Pop()
			wid, wp, wok := refMax()
			if gok != wok || (gok && (gid != wid || gp != wp)) {
				t.Fatalf("op %d: Pop = (%d,%d,%v), want (%d,%d,%v)", op, gid, gp, gok, wid, wp, wok)
			}
			delete(ref, wid)
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, q.Len(), len(ref))
		}
	}
}

// TestHeapDrainSorted: popping everything yields non-increasing priorities.
func TestHeapDrainSorted(t *testing.T) {
	f := func(prios []int64) bool {
		q := NewDense(len(prios))
		for i, p := range prios {
			q.Push(i, p)
		}
		var got []int64
		for q.Len() > 0 {
			_, p, _ := q.Pop()
			got = append(got, p)
		}
		if len(got) != len(prios) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
