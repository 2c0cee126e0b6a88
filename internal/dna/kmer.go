package dna

import "fmt"

// Kmer is a 2-bit packed k-mer, k ≤ 32. The most significant bits hold the
// leftmost base. A Kmer value alone does not know its own k; callers carry
// k alongside, as the overlap indexer does.
type Kmer uint64

// MaxK is the largest k representable by a packed Kmer.
const MaxK = 32

// PackKmer packs seq[0:k] into a Kmer. It returns ok=false if the window
// contains an N (k-mers spanning Ns are skipped by convention, matching the
// behaviour of the Focus alignment indexer).
func PackKmer(seq []byte, k int) (km Kmer, ok bool) {
	if k <= 0 || k > MaxK || len(seq) < k {
		return 0, false
	}
	var v uint64
	for i := 0; i < k; i++ {
		c := baseCode[seq[i]]
		if c == 0xFF {
			return 0, false
		}
		v = v<<2 | uint64(c)
	}
	return Kmer(v), true
}

// String renders the k-mer as bases for the given k.
func (km Kmer) String(k int) string {
	return string(km.AppendBytes(make([]byte, 0, k), k))
}

// AppendBytes appends the k bases of the k-mer to dst and returns the
// extended slice, allowing callers to unpack k-mers into a reused buffer
// without allocating.
func (km Kmer) AppendBytes(dst []byte, k int) []byte {
	n := len(dst)
	for i := 0; i < k; i++ {
		dst = append(dst, 0)
	}
	v := uint64(km)
	for i := k - 1; i >= 0; i-- {
		dst[n+i] = codeBase[v&3]
		v >>= 2
	}
	return dst
}

// ReverseComplement returns the reverse complement of the k-mer for the
// given k.
func (km Kmer) ReverseComplement(k int) Kmer {
	v := uint64(km)
	var r uint64
	for i := 0; i < k; i++ {
		r = r<<2 | (^v)&3
		v >>= 2
	}
	return Kmer(r)
}

// Canonical returns the lexicographically smaller of the k-mer and its
// reverse complement.
func (km Kmer) Canonical(k int) Kmer {
	rc := km.ReverseComplement(k)
	if rc < km {
		return rc
	}
	return km
}

// KmerIter iterates over every k-mer of a sequence with a rolling 2-bit
// encoding, skipping windows that contain N.
type KmerIter struct {
	seq   []byte
	k     int
	mask  uint64
	pos   int    // index of the NEXT base to consume
	valid int    // number of consecutive valid bases ending at pos-1
	cur   uint64 // rolling value of the last min(valid,k) bases
}

// NewKmerIter returns an iterator over the k-mers of seq. It panics if
// k is out of range (programmer error; k is a configuration constant).
// It is small enough to inline, so an iterator that does not outlive its
// caller stays off the heap.
func NewKmerIter(seq []byte, k int) *KmerIter {
	return &KmerIter{seq: seq, k: k, mask: kmerMask(k)}
}

// kmerMask is the mask of a k-mer's 2k bits. It panics if k is out of
// range.
func kmerMask(k int) uint64 {
	if k <= 0 || k > MaxK {
		panic(fmt.Sprintf("dna: k=%d out of range [1,%d]", k, MaxK))
	}
	if k == 32 {
		return ^uint64(0)
	}
	return (1 << (2 * uint(k))) - 1
}

// Next returns the next k-mer and the offset of its first base, or
// ok=false when the sequence is exhausted.
func (it *KmerIter) Next() (km Kmer, offset int, ok bool) {
	for it.pos < len(it.seq) {
		c := baseCode[it.seq[it.pos]]
		it.pos++
		if c == 0xFF {
			it.valid = 0
			it.cur = 0
			continue
		}
		it.cur = (it.cur<<2 | uint64(c)) & it.mask
		it.valid++
		if it.valid >= it.k {
			return Kmer(it.cur), it.pos - it.k, true
		}
	}
	return 0, 0, false
}

// ForEachKmer calls fn for every N-free k-mer window of seq in left-to-right
// order, passing the packed k-mer and the offset of its first base. Windows
// containing any non-ACGT byte (N, separators such as '#') are skipped, so
// enumerating a concatenation of '#'-separated reads never yields a k-mer
// spanning two reads. It performs no allocations.
func ForEachKmer(seq []byte, k int, fn func(km Kmer, offset int)) {
	mask := kmerMask(k)
	var cur uint64
	valid := 0
	for i := 0; i < len(seq); i++ {
		c := baseCode[seq[i]]
		if c == 0xFF {
			valid, cur = 0, 0
			continue
		}
		cur = (cur<<2 | uint64(c)) & mask
		valid++
		if valid >= k {
			fn(Kmer(cur), i+1-k)
		}
	}
}
