package assembly

// stampAccum is a generation-stamped int32→int32 map with a BELLA-style
// dense/hash accumulator switch: heavy rows over small key spaces use a
// directly indexed stamp array with an O(1) generation clear, light rows
// over wide spaces use open-addressing hashing sized to the row so the
// working set stays O(row). It backs the transitive-reduction kernel's
// direct-successor index — the Diag(v,·) diagonal of the masked sparse
// product R = A·A that Guidi et al. ("Parallel String Graph Construction
// and Transitive Reduction") formulate transitive reduction as.
//
// A stampAccum is owned by exactly one goroutine at a time; buffers grow
// on demand and amortize across rows. Mode selection cannot change
// results: Set/Get have identical last-write-wins semantics on both
// paths.
type stampAccum struct {
	gen   uint32
	dense []stampSlot // dense path: indexed directly by key
	htab  []stampSlot // hash path: open addressing on key
	hmask uint32
	isDen bool
}

// stampSlot is one accumulator entry; the dense path ignores key.
type stampSlot struct {
	gen uint32
	key int32
	val int32
}

// Reset starts a new row: numKeys is the key space size (keys must be in
// [0, numKeys)) and sets is an upper bound on the Set calls of the row
// (sizes the hash table at ≤50% load). The heavy-row rule picks the mode:
// a row whose Set count is a sizable fraction of the key space (or a
// small key space outright) amortizes the dense stamp array; sparse rows
// over wide spaces keep the working set at O(sets) via hashing.
func (a *stampAccum) Reset(numKeys, sets int) {
	a.reset(numKeys, sets, numKeys <= 4096 || sets >= numKeys/8)
}

// reset is Reset with the mode forced (the tests drive both paths).
func (a *stampAccum) reset(numKeys, sets int, dense bool) {
	a.isDen = dense
	if a.isDen {
		// Fresh slots carry generation 0, which is never live (the wrap
		// handler below skips 0), so growth needs no clearing.
		if len(a.dense) < numKeys {
			a.dense = make([]stampSlot, numKeys)
		}
	} else {
		need := 16
		for need < 2*sets {
			need <<= 1
		}
		if len(a.htab) < need {
			a.htab = make([]stampSlot, need)
		}
		a.hmask = uint32(len(a.htab) - 1)
	}
	a.gen++
	if a.gen == 0 { // uint32 wrap: stale stamps could alias, hard-clear
		for i := range a.dense {
			a.dense[i].gen = 0
		}
		for i := range a.htab {
			a.htab[i].gen = 0
		}
		a.gen = 1
	}
}

// Set binds key to val for the current row (last write wins).
func (a *stampAccum) Set(key, val int32) {
	if a.isDen {
		a.dense[key] = stampSlot{gen: a.gen, key: key, val: val}
		return
	}
	h := (uint32(key) * 0x9E3779B1) & a.hmask
	for {
		s := &a.htab[h]
		if s.gen != a.gen || s.key == key {
			*s = stampSlot{gen: a.gen, key: key, val: val}
			return
		}
		h = (h + 1) & a.hmask
	}
}

// Get returns the value bound to key in the current row.
func (a *stampAccum) Get(key int32) (int32, bool) {
	if a.isDen {
		s := &a.dense[key]
		if s.gen != a.gen {
			return 0, false
		}
		return s.val, true
	}
	h := (uint32(key) * 0x9E3779B1) & a.hmask
	for {
		s := &a.htab[h]
		if s.gen != a.gen {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
		h = (h + 1) & a.hmask
	}
}
