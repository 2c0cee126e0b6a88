package overlap

import (
	"slices"
	"sort"

	"focus/internal/dna"
	"focus/internal/suffixarray"
)

// saIndex is the original suffix-array seed index (the paper's structure,
// Larsson–Sadakane) over the concatenation of one read subset, with '#'
// separators so matches cannot span reads. It is the oracle the packed
// k-mer table is pinned to: identical occurrence sets and mask decisions
// per probe, identical records through the production query loop. One
// goroutine at a time (pat/hits are probe buffers).
type saIndex struct {
	sa *suffixarray.Array
	k  int
	// starts[i] is the offset of read i (subset-local) in the text.
	starts []int
	reads  []int32
	seqs   [][]byte
	pat    []byte    // unpacked probe pattern
	hits   []seedHit // located (read, offset) hits
}

func buildSAIndex(seqs [][]byte, global []int32, k int) *saIndex {
	total := 0
	for _, s := range seqs {
		total += len(s) + 1
	}
	text := make([]byte, 0, total)
	ix := &saIndex{k: k, reads: global, seqs: seqs, starts: make([]int, 0, len(seqs))}
	for _, s := range seqs {
		ix.starts = append(ix.starts, len(text))
		text = append(text, s...)
		text = append(text, '#')
	}
	ix.sa = suffixarray.New(text)
	return ix
}

func (ix *saIndex) numReads() int              { return len(ix.reads) }
func (ix *saIndex) readID(local int32) int32   { return ix.reads[local] }
func (ix *saIndex) readSeq(local int32) []byte { return ix.seqs[local] }

// locate maps a text position to (subset-local read, offset within read).
func (ix *saIndex) locate(pos int) (read, off int) {
	i := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] > pos }) - 1
	return i, pos - ix.starts[i]
}

func (ix *saIndex) seedHits(km dna.Kmer, maxOccur int) ([]seedHit, bool) {
	ix.pat = km.AppendBytes(ix.pat[:0], ix.k)
	maxHits := -1
	if maxOccur > 0 {
		maxHits = maxOccur + 1
	}
	positions := ix.sa.Lookup(ix.pat, maxHits)
	if dna.RepeatMasked(len(positions), maxOccur) {
		return nil, true
	}
	ix.hits = ix.hits[:0]
	for _, pos := range positions {
		r, off := ix.locate(pos)
		ix.hits = append(ix.hits, seedHit{read: int32(r), off: int32(off)})
	}
	return ix.hits, false
}

// oracleOverlaps is FindOverlaps/CountCandidates over the suffix-array
// oracle: the production query loop and record merge, run serially with
// one saIndex per reference subset.
func oracleOverlaps(reads []dna.Read, subsets int, cfg Config, countOnly bool) ([]Record, int64) {
	subIDs, subSeqs := splitSubsets(reads, subsets)
	sc := &scratch{countOnly: countOnly}
	refs := make([]*saIndex, subsets)
	for r := range refs {
		refs[r] = buildSAIndex(subSeqs[r], subIDs[r], cfg.K)
	}
	jobs := subsetPairs(subsets)
	lists := make([][]Record, len(jobs))
	for t, j := range jobs {
		lists[t] = slices.Clone(alignQueries(subIDs[j.q], subSeqs[j.q], refs[j.r], cfg, sc))
	}
	recs, err := mergeRecords(jobs, lists)
	if err != nil {
		panic(err) // lists come straight from alignQueries
	}
	return recs, sc.candTotal
}
