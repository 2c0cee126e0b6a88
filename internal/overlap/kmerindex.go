package overlap

import (
	"math/bits"
	"sort"

	"focus/internal/dna"
)

// seedHit is one occurrence of a seed k-mer in a reference subset:
// the subset-local read index and the offset of the k-mer within it.
type seedHit struct {
	read int32
	off  int32
}

// refIndex is the seed-lookup structure built over one reference read
// subset. Production code has one implementation, the packed k-mer table;
// the interface exists so the tests can run the same query loop over the
// suffix-array oracle (TestIndexingEquivalence).
type refIndex interface {
	numReads() int
	readID(local int32) int32 // global read id
	readSeq(local int32) []byte
	// seedHits returns every occurrence of km in the subset. When
	// maxOccur > 0 and the k-mer occurs more often than that, it returns
	// masked=true and no hits (repeat masking). The returned slice is
	// only valid until the next seedHits call on the same index.
	seedHits(km dna.Kmer, maxOccur int) (hits []seedHit, masked bool)
}

// kmerIndex is a sorted packed k-mer table: every k-mer of the subset is
// enumerated at build time into (kmer, read, offset) entries sorted by the
// 2-bit packed k-mer value. A probe reads one bucket of a directory over
// the k-mer's top bits and binary-searches the few keys the bucket spans
// in a contiguous []uint64 (no byte comparisons, no per-hit position
// decoding), repeat masking is a postings-length check, and lookups
// allocate nothing. The seq slices are retained (not copied); reads[i] is
// the global read id of subset-local read i.
type kmerIndex struct {
	k     int
	reads []int32
	seqs  [][]byte
	keys  []uint64  // distinct packed k-mers, sorted ascending
	start []int32   // len(keys)+1; postings of keys[i] at posts[start[i]:start[i+1]]
	posts []seedHit // occurrences grouped by k-mer, (read, off)-sorted within a group
	// Bucket directory: keys whose top bits (key >> dirShift) equal b sit at
	// keys[dir[b]:dir[b+1]]. One bucket per one to two k-mers of the
	// subset, at most 2^dirMaxBits, never more bits than a k-mer has.
	dir      []uint32
	dirShift uint
}

// dirMaxBits caps the directory at 2^17 buckets (512 KB): about four keys
// a bucket on a half-million-key subset.
const dirMaxBits = 17

// buildKmerIndex sorts the subset's k-mers by bucket scatter: one
// enumeration counts the k-mers of every directory bucket, a second
// scatters (key, hit) pairs to their bucket's slots — in enumeration, that
// is (read, off), order — and each bucket, a handful of entries, is then
// sorted by key stably and compacted into keys/start/posts.
func buildKmerIndex(seqs [][]byte, global []int32, k int) *kmerIndex {
	ix := &kmerIndex{k: k, reads: global, seqs: seqs}
	// Upper bound on the k-mer count (exact for N-free reads).
	bound := 0
	for _, s := range seqs {
		if n := len(s) - k + 1; n > 0 {
			bound += n
		}
	}
	// A k-mer occupies the low 2k bits (all 64 at k = 32), so the shift is
	// taken from 2k directly: shifting by 64 yields bucket 0, as it must
	// for the one-bucket directory of an empty subset.
	dirBits := min(bits.Len(uint(bound)/2), dirMaxBits, 2*k)
	shift := uint(2*k - dirBits)
	nb := 1 << dirBits
	dir := make([]uint32, nb+1)
	for _, s := range seqs {
		dna.ForEachKmer(s, k, func(km dna.Kmer, _ int) { dir[uint64(km)>>shift]++ })
	}
	total := uint32(0)
	for b := range nb { // bucket sizes into bucket starts
		dir[b], total = total, total+dir[b]
	}
	keys := make([]uint64, total)
	posts := make([]seedHit, total)
	for r, s := range seqs {
		r32 := int32(r)
		dna.ForEachKmer(s, k, func(km dna.Kmer, off int) {
			b := uint64(km) >> shift
			keys[dir[b]], posts[dir[b]] = uint64(km), seedHit{read: r32, off: int32(off)}
			dir[b]++ // ends as the next bucket's start
		})
	}
	// Sort every bucket by key, turning dir into bucket starts over the
	// distinct keys as they are counted.
	lo, distinct := uint32(0), uint32(0)
	for b := range nb {
		hi := dir[b]
		if hi-lo > 1 {
			sortBucket(keys[lo:hi], posts[lo:hi])
		}
		dir[b] = distinct
		for i := lo; i < hi; i++ {
			if i == lo || keys[i] != keys[i-1] {
				distinct++
			}
		}
		lo = hi
	}
	dir[nb] = distinct
	start := make([]int32, 0, distinct+1)
	d := 0
	for i, key := range keys {
		if i == 0 || key != keys[d-1] {
			keys[d] = key
			start = append(start, int32(i))
			d++
		}
	}
	ix.keys, ix.start, ix.posts = keys[:d], append(start, int32(total)), posts
	ix.dir, ix.dirShift = dir, shift
	return ix
}

// sortBucket orders one bucket's entries by key, stably: postings of a key
// keep the (read, off) order the scatter gave them. Buckets hold one or two
// k-mers on average and take an insertion sort; a larger one (a
// low-complexity subset can pile thousands into one) sorts by (key, read,
// off), which is the same order — stable, since (read, off) was the
// entries' order — in O(s log s).
func sortBucket(keys []uint64, posts []seedHit) {
	if len(keys) > 32 {
		sort.Sort(bucketOrder{keys, posts})
		return
	}
	for i := 1; i < len(keys); i++ {
		key, hit := keys[i], posts[i]
		j := i
		for ; j > 0 && keys[j-1] > key; j-- {
			keys[j], posts[j] = keys[j-1], posts[j-1]
		}
		keys[j], posts[j] = key, hit
	}
}

// bucketOrder is sort.Interface over one bucket in (key, read, off) order.
type bucketOrder struct {
	keys  []uint64
	posts []seedHit
}

func (o bucketOrder) Len() int { return len(o.keys) }
func (o bucketOrder) Less(i, j int) bool {
	if o.keys[i] != o.keys[j] {
		return o.keys[i] < o.keys[j]
	}
	if o.posts[i].read != o.posts[j].read {
		return o.posts[i].read < o.posts[j].read
	}
	return o.posts[i].off < o.posts[j].off
}
func (o bucketOrder) Swap(i, j int) {
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	o.posts[i], o.posts[j] = o.posts[j], o.posts[i]
}

func (ix *kmerIndex) numReads() int              { return len(ix.reads) }
func (ix *kmerIndex) readID(local int32) int32   { return ix.reads[local] }
func (ix *kmerIndex) readSeq(local int32) []byte { return ix.seqs[local] }

func (ix *kmerIndex) seedHits(km dna.Kmer, maxOccur int) ([]seedHit, bool) {
	v := uint64(km)
	// The k-mer's bucket, then a hand-rolled binary search inside it: no
	// closure, provably allocation-free. It lands on end when every key of
	// the bucket is smaller.
	bucket := ix.dir[v>>ix.dirShift:]
	lo, hi := int(bucket[0]), int(bucket[1])
	end := hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.keys[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || ix.keys[lo] != v {
		return nil, false
	}
	a, b := ix.start[lo], ix.start[lo+1]
	if dna.RepeatMasked(int(b-a), maxOccur) {
		return nil, true
	}
	return ix.posts[a:b], false
}
