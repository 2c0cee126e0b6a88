package overlap

import (
	"cmp"
	"sort"

	"focus/internal/dna"
)

// saIndex is the original suffix-array seed index (the paper's structure,
// Larsson–Sadakane) over the concatenation of one read subset, with '#'
// separators so matches cannot span reads. It is the oracle the packed
// k-mer table is pinned to: identical occurrence sets per probe of a
// batch, identical records through the production query loop. One
// goroutine at a time (pat/ents are probe buffers).
type saIndex struct {
	sa *suffixArray
	k  int
	// A k-mer occurring more than maxOccur times (dna.RepeatMasked) in
	// whole, the read set — the subset itself when nil — has no hits.
	maxOccur int
	whole    *saIndex
	// starts[i] is the offset of read i (subset-local) in the text.
	starts []int
	pat    []byte   // unpacked probe pattern
	ents   []kentry // located (read, offset) hits of the batch
}

func buildSAIndex(seqs [][]byte, k, maxOccur int) *saIndex {
	total := 0
	for _, s := range seqs {
		total += len(s) + 1
	}
	text := make([]byte, 0, total)
	ix := &saIndex{k: k, maxOccur: maxOccur, starts: make([]int, 0, len(seqs))}
	for _, s := range seqs {
		ix.starts = append(ix.starts, len(text))
		text = append(text, s...)
		text = append(text, '#')
	}
	ix.sa = newSuffixArray(text)
	return ix
}

// locate maps a text position to (subset-local read, offset within read).
func (ix *saIndex) locate(pos int) (read, off int) {
	i := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] > pos }) - 1
	return i, pos - ix.starts[i]
}

// resolve looks every probe up on its own, in suffix order: no batching,
// no directory, no run.
func (ix *saIndex) resolve(ps []probe) []kentry {
	whole, limit := cmp.Or(ix.whole, ix), -1
	if ix.maxOccur > 0 {
		limit = ix.maxOccur + 1 // enough to decide the mask
	}
	ix.ents = ix.ents[:0]
	for i := range ps {
		p := &ps[i]
		p.key, p.flip = p.km, false
		ix.pat = dna.Kmer(p.km).AppendBytes(ix.pat[:0], ix.k)
		p.lo = uint32(len(ix.ents))
		if !dna.RepeatMasked(len(whole.sa.Lookup(ix.pat, limit)), ix.maxOccur) {
			for _, pos := range ix.sa.Lookup(ix.pat, -1) {
				r, off := ix.locate(pos)
				ix.ents = append(ix.ents, kentry{key: p.km, hit: seedHit{read: int32(r), off: int32(off)}})
			}
		}
		p.hi = uint32(len(ix.ents))
	}
	return ix.ents
}

func (*saIndex) pairLast() []int32 { return nil }

// oracleOverlaps is FindOverlaps/CountCandidates over the suffix-array
// oracle: the production query loop and record merge, run serially with
// one saIndex per reference subset, each masking by the occurrences in a
// suffix array of the whole read set. Each reference's list is its query
// subsets' pieces in id order, one chunk per subset.
func oracleOverlaps(reads []dna.Read, subsets int, cfg Config, countOnly bool) ([]Record, int64) {
	subs := splitSubsets(reads, subsets)
	sc := &scratch{countOnly: countOnly}
	whole := buildSAIndex(readSeqs(reads), cfg.K, cfg.MaxOccur)
	refs := make([]*saIndex, len(subs))
	for r := range refs {
		refs[r] = buildSAIndex(subs[r].seqs, cfg.K, cfg.MaxOccur)
		refs[r].whole = whole
	}
	lists := make([]jobRecords, len(subs))
	for r := range lists {
		for q := 0; q <= r; q++ {
			lists[r] = append(lists[r], alignQueriesGate(subs[q], subs[r], refs[r], cfg, sc, nil)...)
		}
	}
	recs, err := mergeRecords(lists)
	if err != nil {
		panic(err) // lists come straight from the staging
	}
	return recs, sc.candTotal
}
