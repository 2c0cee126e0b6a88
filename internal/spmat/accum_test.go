package spmat

import (
	"math/rand"
	"testing"
)

// TestStampAccumModesAgree drives dense, hash and auto accumulators with
// identical randomized Set/Get traffic across many rows and requires
// identical answers from all three (the mode switch must be invisible).
func TestStampAccumModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var dense, hash, auto StampAccum
	for row := 0; row < 400; row++ {
		numKeys := 1 + rng.Intn(9000) // straddles the 4096 dense cutoff
		sets := rng.Intn(64)
		dense.reset(numKeys, sets, true)
		hash.reset(numKeys, sets, false)
		auto.Reset(numKeys, sets)
		ref := map[int32]int32{}
		for i := 0; i < sets; i++ {
			k := int32(rng.Intn(numKeys))
			v := int32(rng.Intn(100) - 50)
			dense.Set(k, v)
			hash.Set(k, v)
			auto.Set(k, v)
			ref[k] = v
		}
		for probe := 0; probe < 80; probe++ {
			k := int32(rng.Intn(numKeys))
			want, wantOK := ref[k]
			for name, a := range map[string]*StampAccum{"dense": &dense, "hash": &hash, "auto": &auto} {
				got, ok := a.Get(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("row %d %s: Get(%d) = %d,%v want %d,%v", row, name, k, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestStampAccumRowIsolation pins the O(1) generation clear: values set in
// one row must be invisible in the next, including immediately after a
// mode flip and after the uint32 generation wrap.
func TestStampAccumRowIsolation(t *testing.T) {
	var a StampAccum
	a.reset(16, 4, true)
	a.Set(3, 77)
	a.reset(16, 4, true)
	if _, ok := a.Get(3); ok {
		t.Fatal("dense value leaked across Reset")
	}
	a.Set(5, 11)
	a.reset(1<<20, 2, false) // wide space, tiny row: hash mode
	if _, ok := a.Get(5); ok {
		t.Fatal("value leaked across a dense->hash mode flip")
	}
	a.Set(5, 12)
	a.reset(16, 4, true)
	if _, ok := a.Get(5); ok {
		t.Fatal("value leaked across a hash->dense mode flip")
	}

	// Generation wrap: force gen to the edge and step across it.
	a.gen = ^uint32(0) - 1
	a.reset(16, 4, true)
	a.Set(7, 1)
	a.reset(16, 4, true) // this Reset wraps gen to 0 -> hard clear to 1
	if a.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", a.gen)
	}
	if _, ok := a.Get(7); ok {
		t.Fatal("value survived the generation wrap hard-clear")
	}
}
