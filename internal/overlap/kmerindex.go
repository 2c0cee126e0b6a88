package overlap

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"focus/internal/dna"
	"focus/internal/par"
)

// seedHit is one occurrence of a seed k-mer in a reference subset:
// the subset-local read index and the offset of the k-mer within it.
type seedHit struct {
	read int32
	off  int32
}

// kentry is one k-mer occurrence: the packed key and its posting on one
// 16-byte line, so the load that finds the key has fetched the posting.
type kentry struct {
	key uint64
	hit seedHit
}

// probe is one sampled query seed. resolve sets key to the k-mer the
// index files the seed's occurrences under — km, or on a flipped probe
// rc(km), whose occurrences on the other strand they are — and [lo, hi)
// to a range of the entries it returns that holds every entry of key,
// possibly among entries of other keys, which the caller skips; the range
// is empty when the k-mer is absent or repeat-masked.
type probe struct {
	km     uint64
	key    uint64
	off    int32 // offset of the seed in the query read
	flip   bool
	lo, hi uint32
}

// hit is the seed occurrence entry e of p's range stands for. A flipped
// probe's entry is rc(km) at (read, off), so km sits at the mirror offset
// |B|−K−off of the other strand, read^1 (last: refIndex.pairLast).
func (p *probe) hit(e kentry, last []int32) seedHit {
	if !p.flip {
		return e.hit
	}
	return seedHit{read: e.hit.read ^ 1, off: last[e.hit.read>>1] - e.hit.off}
}

// sampleSeeds fills the scratch's probe batch with the query read's
// k-mers at every Step-th offset — the paper's decomposition of a query
// read into k-mers (§II.B), sampled on a fixed grid; the first k-mer past
// an N-bearing stretch restarts the grid — and returns it. A cfg.Step <= 0
// is treated as 1.
func sampleSeeds(sc *scratch, seq []byte, cfg Config) []probe {
	step := max(cfg.Step, 1)
	ps := sc.probes[:0]
	it := dna.NewKmerIter(seq, cfg.K)
	next := 0
	for {
		km, off, ok := it.Next()
		if !ok {
			break
		}
		if off < next {
			continue
		}
		next = off + step
		ps = append(ps, probe{km: uint64(km), off: int32(off)})
	}
	sc.probes = ps
	return ps
}

// onGrid reports whether sampleSeeds takes the query's k-mers on one
// unbroken Step grid that ends on its last k-mer: no N restarts it, and
// |A|-K is a grid offset. Then the offsets o and |A|-K-o are grid offsets
// alike, and the reverse complement's seeds are the reverse complements of
// the read's.
func onGrid(seq []byte, cfg Config) bool {
	return len(seq) >= cfg.K && (len(seq)-cfg.K)%max(cfg.Step, 1) == 0 && bytes.IndexByte(seq, 'N') < 0
}

// refIndex resolves one query's seed batch against one reference subset.
// Production code has one implementation, the packed k-mer table; the
// interface exists so the tests can run the same query loop over the
// suffix-array oracle (TestIndexingEquivalence). The loop calls resolve
// once per query, never per probe, and pairLast once per job.
type refIndex interface {
	// resolve sets every probe's key, flip and range over the returned
	// entries (see probe); the occurrences may come in any order, and a
	// repeat-masked k-mer has none. The returned slice is only valid until
	// the next resolve call on the same index.
	resolve(ps []probe) []kentry
	// pairLast is the offset of the last k-mer, |B|−K, of each strand
	// pair's reads (pair i: reads 2i and 2i+1), which maps a flipped
	// probe's entries (probe.hit); nil for an index that flips none.
	pairLast() []int32
}

// revComp is the reverse complement of the packed k-mer km: every base
// complemented (code c ↔ 3−c, a bit flip) and their order reversed.
// Reversing all 64 bits reverses the bases and swaps each base's two bits,
// which the second line swaps back; the complemented bits above 2k land at
// the bottom and are shifted out.
func revComp(km uint64, k int) uint64 {
	x := bits.Reverse64(^km)
	x = x>>1&0x5555555555555555 | x&0x5555555555555555<<1
	return x >> (64 - 2*uint(k))
}

// kmerIndex is a packed k-mer table: every k-mer occurrence of the subset
// but the repeat-masked ones is one entry, grouped into buckets by a hash
// of the 2-bit packed k-mer value (bucket). A bucket of up to sortedBucket
// entries — nearly all of them — stays in scatter order and a probe
// filter-scans it; a larger one is sorted by (key, read, off) and a probe
// binary-searches its key's run. Lookups allocate nothing.
//
// A strand-paired subset (readSet.paired: read 2i+1 = rc(read 2i)) is
// indexed strand-canonically: only the occurrences of canonical k-mers,
// km <= rc(km), are entries, about half of them, and a probe of a
// non-canonical km looks up rc(km) and maps the entries to the other
// strand (probe.hit). Any other subset is indexed in full, every
// occurrence its own entry (eachKey).
type kmerIndex struct {
	k    int
	ents []kentry
	// Bucket directory: entries whose bucket(key) is b sit at
	// ents[dir[b]:dir[b+1]]. One bucket per one to two entries, at most
	// 2^dirMaxBits, never more buckets than there are k-mers; dirShift is
	// 64 minus the directory's bits.
	dir      []uint32
	dirShift uint
	// canon marks a strand-canonical index; last is its pairLast.
	canon bool
	last  []int32
}

// bucket is key's directory bucket: the top bits of key·φ⁻¹·2⁶⁴
// (Fibonacci hashing). The top bits of the key itself would do for a
// full index, but a strand-canonical key is the smaller of two k-mers:
// its density falls from 2 to 0 across the key range, and its top-bit
// buckets are the more crowded where the probes land (DESIGN.md §7.1).
// Shifting by 64 yields bucket 0, the one-bucket directory of an empty
// subset.
func (ix *kmerIndex) bucket(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> ix.dirShift }

// dirMaxBits caps the directory at 2^17 buckets (512 KB): about four
// entries a bucket on a half-million-k-mer subset.
const dirMaxBits = 17

// sortedBucket is the size past which a bucket is sorted: scanning a few
// cache lines costs a probe less than the sort costs the build, and a
// binary search only pays off in the buckets repeats and low-complexity
// reads pile up.
const sortedBucket = 32

// maxIndexKmers bounds the k-mers of one subset: directory slots, probe
// ranges and postings are 32-bit.
const maxIndexKmers = math.MaxInt32

// indexKmers returns the upper bound on the subset's k-mer count (exact
// for N-free reads), or an error once it passes maxIndexKmers — before
// anything is allocated.
func indexKmers(seqs [][]byte, k int) (int, error) {
	n := 0
	for _, s := range seqs {
		if m := len(s) - k + 1; m > 0 {
			if n += m; n > maxIndexKmers {
				return 0, fmt.Errorf("overlap: reference subset of %d reads has more than %d k-mers (k=%d), past the index's 32-bit offsets", len(seqs), maxIndexKmers, k)
			}
		}
	}
	return n, nil
}

// eachKey calls add with batches of entries: the index key and posting of
// every k-mer occurrence of seqs, in (read, off) order, each k-mer its own
// key. A strand-canonical enumeration (canon, seqs strand-paired) takes
// the even reads only and at (2i, o) the canonical one of the k-mer f and
// rc(f) at (2i+1, |B|−K−o) — both, for a palindrome: a key still comes up
// once per occurrence of its k-mer.
func eachKey(seqs [][]byte, k int, canon bool, add func([]kentry)) {
	mask, top := uint64(1)<<(2*k)-1, 2*uint(k-1) // k = 32: every bit
	batch := make([]kentry, 0, 256)
	step := 1
	if canon {
		step = 2
	}
	for r := 0; r < len(seqs); r += step {
		last := int32(len(seqs[r]) - k)
		var f, rc uint64 // the last k bases and their reverse complement
		valid := 0
		for i, b := range seqs[r] {
			c, ok := dna.BaseCode(b)
			if !ok {
				valid = 0
				continue
			}
			f, rc = (f<<2|uint64(c))&mask, rc>>2|uint64(3-c)<<top
			if valid++; valid < k {
				continue
			}
			key, read, off := f, int32(r), int32(i+1-k)
			if canon && f == rc { // a palindrome: both strands' occurrences
				batch = append(batch, kentry{key, seedHit{read, off}})
			}
			other := canon && rc <= f // selects without a branch
			if other {
				key = rc
			}
			if other {
				read++
			}
			if other {
				off = last - off
			}
			if batch = append(batch, kentry{key, seedHit{read, off}}); len(batch) >= cap(batch)-1 {
				add(batch)
				batch = batch[:0]
			}
		}
	}
	add(batch)
}

// repeatKeys returns, ascending, the keys (eachKey's) whose k-mers occur
// more than maxOccur times in seqs, the whole read set: the repeat mask
// every index of the stage is built without; maxOccur <= 0 masks nothing.
// workers requests the passes' width (<= 0: the par governor's). The
// first pass counts keys into hash buckets (about eight keys a bucket,
// saturating); only a bucket past maxOccur can hold a masked key, so the
// second counts just those buckets' keys, in a map per part of the reads.
func repeatKeys(seqs [][]byte, k int, paired bool, maxOccur, workers int) []uint64 {
	if maxOccur <= 0 {
		return nil
	}
	step := 1
	if paired {
		step = 2 // about one key per k-mer and its reverse complement
	}
	n := 0
	for r := 0; r < len(seqs); r += step {
		n += max(len(seqs[r])-k+1, 0)
	}
	ix := kmerIndex{k: k, dirShift: uint(64 - min(bits.Len(uint(n)/8), 2*k))}
	parts := par.Workers(workers, len(seqs)/step, 2048)
	part := func(p int) [][]byte { // whole strand pairs
		lo, hi := par.Split(len(seqs)/step, parts, p)
		return seqs[step*lo : step*hi]
	}
	counts := make([][]uint16, parts)
	par.Run(parts, parts, func(_, p int) {
		c := make([]uint16, 1<<(64-ix.dirShift))
		eachKey(part(p), k, paired, func(es []kentry) {
			for _, e := range es {
				if b := ix.bucket(e.key); c[b] < math.MaxUint16 {
					c[b]++
				}
			}
		})
		counts[p] = c
	})
	heavy := make([]uint64, (len(counts[0])+63)/64)
	for b := range counts[0] {
		sum := 0
		for _, c := range counts {
			sum += int(c[b])
		}
		if dna.RepeatMasked(sum, maxOccur) {
			heavy[b/64] |= 1 << (b % 64)
		}
	}
	occ := make([]map[uint64]int, parts)
	par.Run(parts, parts, func(_, p int) {
		m := map[uint64]int{}
		eachKey(part(p), k, paired, func(es []kentry) {
			for _, e := range es {
				if b := ix.bucket(e.key); heavy[b/64]&(1<<(b%64)) != 0 {
					m[e.key]++
				}
			}
		})
		occ[p] = m
	})
	for _, m := range occ[1:] {
		for key, c := range m {
			occ[0][key] += c
		}
	}
	var masked []uint64
	for key, c := range occ[0] {
		if dna.RepeatMasked(c, maxOccur) {
			masked = append(masked, key)
		}
	}
	slices.Sort(masked)
	return masked
}

// buildKmerIndex groups the subset's entries by bucket scatter: one
// enumeration (scan) counts the entries of every directory bucket, a
// second scatters them to their bucket's slots in enumeration order, and
// the buckets past sortedBucket entries are then sorted. paired builds the
// strand-canonical index, and requires a strand-paired subset. The keys
// of masked, ascending (repeatKeys), never enter.
func buildKmerIndex(seqs [][]byte, k int, paired bool, masked []uint64) (*kmerIndex, error) {
	bound, err := indexKmers(seqs, k)
	if err != nil {
		return nil, err
	}
	if paired {
		bound /= 2 // one entry per k-mer and its reverse complement
	}
	dirBits := min(bits.Len(uint(bound)/2), dirMaxBits, 2*k)
	nb := 1 << dirBits
	ix := &kmerIndex{k: k, dir: make([]uint32, nb+1), dirShift: uint(64 - dirBits), canon: paired}
	if paired {
		ix.last = make([]int32, len(seqs)/2)
		for i := range ix.last {
			ix.last[i] = int32(len(seqs[2*i]) - k)
		}
	}
	var dirty []uint64 // the buckets a masked key falls in
	if len(masked) > 0 {
		dirty = make([]uint64, (nb+63)/64)
		for _, key := range masked {
			b := ix.bucket(key)
			dirty[b/64] |= 1 << (b % 64)
		}
	}
	ix.scan(seqs, masked, dirty, nil)
	total := uint32(0)
	for b := range nb { // bucket sizes into bucket starts
		ix.dir[b], total = total, total+ix.dir[b]
	}
	ix.ents = make([]kentry, total)
	ix.scan(seqs, masked, dirty, ix.ents)
	dir, ents := ix.dir, ix.ents
	lo := uint32(0)
	for b := range nb {
		hi := dir[b]
		if hi-lo > sortedBucket {
			// (key, read, off) order: a full index's scatter order within a key.
			slices.SortFunc(ents[lo:hi], func(x, y kentry) int {
				if x.key != y.key {
					return cmp.Compare(x.key, y.key)
				}
				if x.hit.read != y.hit.read {
					return cmp.Compare(x.hit.read, y.hit.read)
				}
				return cmp.Compare(x.hit.off, y.hit.off)
			})
		}
		dir[b], lo = lo, hi
	}
	dir[nb] = total
	return ix, nil
}

// scan enumerates the index's entries (eachKey, the masked ones skipped)
// and bumps each one's bucket slot dir[b]: with ents nil that counts the
// buckets' entries; otherwise the slots hold the buckets' starts, and each
// entry goes to its bucket's next slot, ending as the next bucket's start.
func (ix *kmerIndex) scan(seqs [][]byte, masked, dirty []uint64, ents []kentry) {
	dir := ix.dir
	eachKey(seqs, ix.k, ix.canon, func(es []kentry) {
		for _, e := range es {
			b := ix.bucket(e.key)
			if dirty != nil && dirty[b/64]&(1<<(b%64)) != 0 {
				if _, found := slices.BinarySearch(masked, e.key); found {
					continue
				}
			}
			if ents != nil {
				ents[dir[b]] = e
			}
			dir[b]++
		}
	})
}

func (ix *kmerIndex) pairLast() []int32 { return ix.last }

// resolve makes tight passes over the whole batch, so the cache misses of
// different probes overlap instead of queueing behind each other's votes:
// first every probe's key and bucket bounds (one directory line each),
// then the key's entries inside the bucket (the entry lines, postings
// included).
func (ix *kmerIndex) resolve(ps []probe) []kentry {
	dir, ents := ix.dir, ix.ents
	for i := range ps {
		p := &ps[i]
		p.key, p.flip = p.km, false
		if ix.canon {
			if rc := revComp(p.km, ix.k); rc < p.km {
				p.key, p.flip = rc, true
			}
		}
		b := ix.bucket(p.key)
		p.lo, p.hi = dir[b], dir[b+1]
	}
	for i := range ps {
		p := &ps[i]
		key := p.key
		lo, hi := p.lo, p.hi
		if hi-lo <= sortedBucket {
			found := false
			for _, e := range ents[lo:hi] {
				found = found || e.key == key
			}
			if !found {
				p.hi = lo
			}
			continue
		}
		for lo < hi { // the key's first entry
			mid := (lo + hi) >> 1
			if ents[mid].key < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for hi = lo; hi < p.hi && ents[hi].key == key; hi++ {
		}
		p.lo, p.hi = lo, hi
	}
	return ents
}
