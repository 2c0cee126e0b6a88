package overlap

import (
	"sort"

	"focus/internal/dna"
	"focus/internal/suffixarray"
)

// saIndex is the original suffix-array seed index (the paper's structure,
// Larsson–Sadakane) over the concatenation of one read subset, with '#'
// separators so matches cannot span reads. It is the oracle the packed
// k-mer table is pinned to: identical occurrence sets per probe of a
// batch, identical records through the production query loop. One
// goroutine at a time (pat/ents are probe buffers).
type saIndex struct {
	sa *suffixarray.Array
	k  int
	// starts[i] is the offset of read i (subset-local) in the text.
	starts []int
	pat    []byte   // unpacked probe pattern
	ents   []kentry // located (read, offset) hits of the batch
}

func buildSAIndex(seqs [][]byte, k int) *saIndex {
	total := 0
	for _, s := range seqs {
		total += len(s) + 1
	}
	text := make([]byte, 0, total)
	ix := &saIndex{k: k, starts: make([]int, 0, len(seqs))}
	for _, s := range seqs {
		ix.starts = append(ix.starts, len(text))
		text = append(text, s...)
		text = append(text, '#')
	}
	ix.sa = suffixarray.New(text)
	return ix
}

// locate maps a text position to (subset-local read, offset within read).
func (ix *saIndex) locate(pos int) (read, off int) {
	i := sort.Search(len(ix.starts), func(i int) bool { return ix.starts[i] > pos }) - 1
	return i, pos - ix.starts[i]
}

// resolve looks every probe up on its own, in suffix order: no batching,
// no directory, no run.
func (ix *saIndex) resolve(ps []probe, maxOccur int) []kentry {
	maxHits := -1
	if maxOccur > 0 {
		maxHits = maxOccur + 1
	}
	ix.ents = ix.ents[:0]
	for i := range ps {
		p := &ps[i]
		ix.pat = dna.Kmer(p.km).AppendBytes(ix.pat[:0], ix.k)
		positions := ix.sa.Lookup(ix.pat, maxHits)
		p.lo = uint32(len(ix.ents))
		if !dna.RepeatMasked(len(positions), maxOccur) {
			for _, pos := range positions {
				r, off := ix.locate(pos)
				ix.ents = append(ix.ents, kentry{key: p.km, hit: seedHit{read: int32(r), off: int32(off)}})
			}
		}
		p.hi = uint32(len(ix.ents))
	}
	return ix.ents
}

// oracleOverlaps is FindOverlaps/CountCandidates over the suffix-array
// oracle: the production query loop and record merge, run serially with
// one saIndex per reference subset.
func oracleOverlaps(reads []dna.Read, subsets int, cfg Config, countOnly bool) ([]Record, int64) {
	subs := splitSubsets(reads, subsets)
	sc := &scratch{countOnly: countOnly}
	refs := make([]*saIndex, subsets)
	for r := range refs {
		refs[r] = buildSAIndex(subs[r].seqs, cfg.K)
	}
	jobs := subsetPairs(subsets)
	lists := make([][]Record, len(jobs))
	for t, j := range jobs {
		lists[t] = alignQueries(subs[j.q], subs[j.r], refs[j.r], cfg, sc)
	}
	recs, err := mergeRecords(jobs, lists)
	if err != nil {
		panic(err) // lists come straight from alignQueries
	}
	return recs, sc.candTotal
}
