package overlap

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"focus/internal/dna"
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

// probe is one sampled query seed. resolve sets [lo, hi) to a range of
// the entries it returns that holds every occurrence of the seed's k-mer,
// possibly among entries of other k-mers, which the caller skips; the
// range is empty when the k-mer is absent or repeat-masked.
type probe struct {
	km     uint64
	off    int32 // offset of the seed in the query read
	lo, hi uint32
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
// suffix-array oracle (TestIndexingEquivalence). The loop calls it once
// per query, never per probe.
type refIndex interface {
	// resolve sets every probe's range over the returned entries (see
	// probe); the occurrences may come in any order. When maxOccur > 0 and
	// the k-mer occurs more often than that, the range is empty (repeat
	// masking). The returned slice is only valid until the next resolve
	// call on the same index.
	resolve(ps []probe, maxOccur int) []kentry
}

// kmerIndex is a packed k-mer table: every k-mer occurrence of the subset
// is one entry, grouped into buckets by the top bits of the 2-bit packed
// k-mer value. A bucket of up to sortedBucket entries — nearly all of them
// — stays in scatter, that is (read, off), order and a probe filter-scans
// it; a larger one is sorted by (key, read, off) and a probe binary-searches
// its key's run. Either way the repeat mask is the key's occurrence count,
// and lookups allocate nothing.
type kmerIndex struct {
	k    int
	ents []kentry
	// Bucket directory: entries whose top key bits (key >> dirShift) equal
	// b sit at ents[dir[b]:dir[b+1]]. One bucket per one to two k-mers of
	// the subset, at most 2^dirMaxBits, never more bits than a k-mer has.
	dir      []uint32
	dirShift uint
}

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

// buildKmerIndex groups the subset's k-mers by bucket scatter: one
// enumeration counts the k-mers of every directory bucket, a second
// scatters the entries to their bucket's slots — in enumeration, that is
// (read, off), order — and the buckets past sortedBucket entries are then
// sorted.
func buildKmerIndex(seqs [][]byte, k int) (*kmerIndex, error) {
	bound, err := indexKmers(seqs, k)
	if err != nil {
		return nil, err
	}
	// A k-mer occupies the low 2k bits (all 64 at k = 32), so the shift is
	// taken from 2k directly: shifting by 64 yields bucket 0, as it must
	// for the one-bucket directory of an empty subset.
	dirBits := min(bits.Len(uint(bound)/2), dirMaxBits, 2*k)
	shift := uint(2*k - dirBits)
	nb := 1 << dirBits
	dir := make([]uint32, nb+1)
	for _, s := range seqs {
		for it := dna.NewKmerIter(s, k); ; {
			km, _, ok := it.Next()
			if !ok {
				break
			}
			dir[uint64(km)>>shift]++
		}
	}
	total := uint32(0)
	for b := range nb { // bucket sizes into bucket starts
		dir[b], total = total, total+dir[b]
	}
	ents := make([]kentry, total)
	for r, s := range seqs {
		for it := dna.NewKmerIter(s, k); ; {
			km, off, ok := it.Next()
			if !ok {
				break
			}
			b := uint64(km) >> shift
			ents[dir[b]] = kentry{key: uint64(km), hit: seedHit{read: int32(r), off: int32(off)}}
			dir[b]++ // ends as the next bucket's start
		}
	}
	lo := uint32(0)
	for b := range nb {
		hi := dir[b]
		if hi-lo > sortedBucket {
			// (key, read, off) order: the scatter's order within a key.
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
	return &kmerIndex{k: k, ents: ents, dir: dir, dirShift: shift}, nil
}

// resolve makes tight passes over the whole batch, so the cache misses of
// different probes overlap instead of queueing behind each other's votes:
// first every probe's bucket bounds (one directory line each), then the
// key's occurrences inside the bucket (the entry lines, postings
// included) and the repeat-mask decision.
func (ix *kmerIndex) resolve(ps []probe, maxOccur int) []kentry {
	dir, ents := ix.dir, ix.ents
	for i := range ps {
		b := ps[i].km >> ix.dirShift
		ps[i].lo, ps[i].hi = dir[b], dir[b+1]
	}
	for i := range ps {
		p := &ps[i]
		km := p.km
		lo, hi := p.lo, p.hi
		n := 0 // occurrences of km; a sorted bucket's counted to one past maxOccur
		if hi-lo <= sortedBucket {
			for _, e := range ents[lo:hi] {
				if e.key == km {
					n++
				}
			}
		} else {
			for lo < hi { // the key's first entry
				mid := (lo + hi) >> 1
				if ents[mid].key < km {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			limit := p.hi
			if maxOccur > 0 && maxOccur < int(limit-lo) {
				limit = lo + uint32(maxOccur) + 1
			}
			hi = lo
			for hi < limit && ents[hi].key == km {
				hi++
			}
			n = int(hi - lo)
		}
		if n == 0 || dna.RepeatMasked(n, maxOccur) {
			hi = lo
		}
		p.lo, p.hi = lo, hi
	}
	return ents
}
