package overlap

import (
	"math/bits"

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
// enumerated once at build time into (kmer, read, offset) entries sorted
// by the 2-bit packed k-mer value. A probe reads one bucket of a directory
// over the k-mer's top bits and binary-searches the few keys the bucket
// spans in a contiguous []uint64 (no byte comparisons, no per-hit position
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
	// keys[dir[b]:dir[b+1]]. One bucket per one to two distinct keys, at
	// most 2^dirMaxBits, never more bits than a k-mer has.
	dir      []uint32
	dirShift uint
}

// dirMaxBits caps the directory at 2^17 buckets (512 KB): about four keys
// a bucket on a half-million-key subset.
const dirMaxBits = 17

type kmerEntry struct {
	key uint64
	hit seedHit
}

func buildKmerIndex(seqs [][]byte, global []int32, k int) *kmerIndex {
	ix := &kmerIndex{k: k, reads: global, seqs: seqs}
	// Upper bound on the entry count (exact for N-free reads).
	bound := 0
	for _, s := range seqs {
		if n := len(s) - k + 1; n > 0 {
			bound += n
		}
	}
	entries := make([]kmerEntry, 0, bound)
	for r, s := range seqs {
		r32 := int32(r)
		dna.ForEachKmer(s, k, func(km dna.Kmer, off int) {
			entries = append(entries, kmerEntry{key: uint64(km), hit: seedHit{read: r32, off: int32(off)}})
		})
	}
	// LSD radix sort on the packed key: stable, so within equal k-mers the
	// append order (read asc, offset asc) is preserved. Only ceil(2k/8)
	// byte passes are needed since a k-mer occupies the low 2k bits; this
	// is several times faster than comparison sorting at index-build time.
	entries = radixSortByKey(entries, k)
	// Compact into distinct keys + grouped postings (exact capacities).
	distinct := 0
	for i := range entries {
		if i == 0 || entries[i].key != entries[i-1].key {
			distinct++
		}
	}
	ix.keys = make([]uint64, 0, distinct)
	ix.start = make([]int32, 0, distinct+1)
	ix.posts = make([]seedHit, len(entries))
	for i := range entries {
		if i == 0 || entries[i].key != entries[i-1].key {
			ix.keys = append(ix.keys, entries[i].key)
			ix.start = append(ix.start, int32(i))
		}
		ix.posts[i] = entries[i].hit
	}
	ix.start = append(ix.start, int32(len(entries)))
	// A k-mer occupies the low 2k bits (all 64 at k = 32), so the shift is
	// taken from 2k directly: shifting by 64 yields bucket 0, as it must
	// for the one-bucket directory of an empty subset.
	dirBits := min(bits.Len(uint(len(ix.keys))/2), dirMaxBits, 2*k)
	ix.dirShift = uint(2*k - dirBits)
	ix.dir = make([]uint32, 1<<dirBits+1)
	for _, key := range ix.keys { // bucket sizes, one slot up ...
		ix.dir[key>>ix.dirShift+1]++
	}
	for b := 1; b < len(ix.dir); b++ { // ... summed into bucket starts
		ix.dir[b] += ix.dir[b-1]
	}
	return ix
}

// radixSortByKey sorts entries ascending by key with a stable LSD radix
// sort over the low 2k bits (8-bit digits). It returns the sorted slice,
// which may be the scratch buffer rather than the input.
func radixSortByKey(entries []kmerEntry, k int) []kmerEntry {
	if len(entries) < 2 {
		return entries
	}
	passes := (2*k + 7) / 8
	buf := make([]kmerEntry, len(entries))
	src, dst := entries, buf
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		var count [256]int
		for i := range src {
			count[(src[i].key>>shift)&0xFF]++
		}
		if count[src[0].key>>shift&0xFF] == len(src) {
			continue // all entries share this digit: pass is a no-op
		}
		sum := 0
		for d := range count {
			count[d], sum = sum, count[d]+sum
		}
		for i := range src {
			d := (src[i].key >> shift) & 0xFF
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	return src
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
