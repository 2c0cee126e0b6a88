// Package debruijn implements a Velvet-style de Bruijn graph assembler
// (Zerbino & Birney, the paper's reference [16]). It is the baseline the
// paper positions Focus against: the dominant parallel assemblers (AbySS,
// Ray, PASHA, SWAP) are all distributed de Bruijn designs, while Focus is
// an overlap-graph design. The comparison benches use this package to
// contrast the two models on the same simulated read sets.
//
// The construction is the standard one: reads are decomposed into k-mers,
// low-multiplicity k-mers are dropped (error filtering), unitigs are
// extracted by unique-extension walking, short dead-end unitigs (tips)
// are clipped, and simple bubbles are popped by coverage.
package debruijn

import (
	"fmt"
	"sort"

	"focus/internal/dna"
)

// Config controls the assembler.
type Config struct {
	K            int // k-mer size (<= 31 so a k+1 extension still packs)
	MinKmerCount int // k-mers seen fewer times are treated as errors
	MinContigLen int // contigs shorter than this are dropped
	// TipFactor: a dead-end unitig shorter than TipFactor*K that carries
	// less coverage than its alternative is clipped (Velvet uses 2k).
	TipFactor int
}

// DefaultConfig returns parameters tuned for 100 bp reads at >= 8x
// coverage.
func DefaultConfig() Config {
	return Config{K: 25, MinKmerCount: 2, MinContigLen: 100, TipFactor: 2}
}

// Graph is the k-mer multiplicity table plus the derived unitig state.
type Graph struct {
	cfg    Config
	counts map[dna.Kmer]int32
	mask   uint64
}

// Build counts k-mers across all reads and applies the multiplicity
// filter. Reads are used as-is: Focus preprocessing already added reverse
// complements, so both strands are represented.
func Build(reads []dna.Read, cfg Config) (*Graph, error) {
	if cfg.K <= 0 || cfg.K > 31 {
		return nil, fmt.Errorf("debruijn: k=%d out of range [1,31]", cfg.K)
	}
	if cfg.MinKmerCount < 1 {
		cfg.MinKmerCount = 1
	}
	g := &Graph{cfg: cfg, counts: make(map[dna.Kmer]int32)}
	if cfg.K == 32 {
		g.mask = ^uint64(0)
	} else {
		g.mask = (1 << (2 * uint(cfg.K))) - 1
	}
	for _, r := range reads {
		it := dna.NewKmerIter(r.Seq, cfg.K)
		for {
			km, _, ok := it.Next()
			if !ok {
				break
			}
			g.counts[km]++
		}
	}
	for km, c := range g.counts {
		if int(c) < cfg.MinKmerCount {
			delete(g.counts, km)
		}
	}
	return g, nil
}

// Coverage returns the multiplicity of a k-mer (0 if filtered/absent).
func (g *Graph) Coverage(km dna.Kmer) int { return int(g.counts[km]) }

// successors returns the up-to-4 k-mers reachable by shifting in one base.
func (g *Graph) successors(km dna.Kmer, buf []dna.Kmer) []dna.Kmer {
	buf = buf[:0]
	base := (uint64(km) << 2) & g.mask
	for c := uint64(0); c < 4; c++ {
		n := dna.Kmer(base | c)
		if g.counts[n] > 0 {
			buf = append(buf, n)
		}
	}
	return buf
}

// predecessors returns the up-to-4 k-mers that shift into km.
func (g *Graph) predecessors(km dna.Kmer, buf []dna.Kmer) []dna.Kmer {
	buf = buf[:0]
	base := uint64(km) >> 2
	shift := 2 * uint(g.cfg.K-1)
	for c := uint64(0); c < 4; c++ {
		p := dna.Kmer(base | c<<shift)
		if g.counts[p] > 0 {
			buf = append(buf, p)
		}
	}
	return buf
}

// Unitig is a maximal unbranched k-mer path.
type Unitig struct {
	Seq      []byte
	Kmers    int
	Coverage float64 // mean k-mer multiplicity
}

// Unitigs extracts all maximal unbranched paths. Each surviving k-mer
// belongs to exactly one unitig.
func (g *Graph) Unitigs() []Unitig {
	visited := make(map[dna.Kmer]bool, len(g.counts))
	var sbuf, pbuf []dna.Kmer
	// Deterministic iteration: sort the k-mers.
	order := make([]dna.Kmer, 0, len(g.counts))
	for km := range g.counts {
		order = append(order, km)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// unique reports whether the edge a->b is the only out of a and the
	// only into b.
	unique := func(a, b dna.Kmer) bool {
		return len(g.successors(a, sbuf)) == 1 && len(g.predecessors(b, pbuf)) == 1
	}

	var unitigs []Unitig
	for _, start := range order {
		if visited[start] {
			continue
		}
		// Walk left to the unitig start.
		cur := start
		for {
			preds := g.predecessors(cur, pbuf)
			if len(preds) != 1 {
				break
			}
			p0 := preds[0]
			if visited[p0] || p0 == start || !unique(p0, cur) {
				break
			}
			cur = p0
		}
		// Walk right collecting the path.
		path := []dna.Kmer{cur}
		visited[cur] = true
		for {
			succs := g.successors(path[len(path)-1], sbuf)
			if len(succs) != 1 {
				break
			}
			nxt := succs[0]
			if visited[nxt] || !unique(path[len(path)-1], nxt) {
				break
			}
			path = append(path, nxt)
			visited[nxt] = true
		}
		unitigs = append(unitigs, g.render(path))
	}
	return unitigs
}

// render converts a k-mer path to sequence + coverage.
func (g *Graph) render(path []dna.Kmer) Unitig {
	seq := []byte(path[0].String(g.cfg.K))
	var cov float64
	for i, km := range path {
		cov += float64(g.counts[km])
		if i > 0 {
			seq = append(seq, dna.CodeBase(byte(uint64(km)&3)))
		}
	}
	return Unitig{Seq: seq, Kmers: len(path), Coverage: cov / float64(len(path))}
}

// ClipTips removes dead-end chains shorter than TipFactor*K that merge
// into a junction whose alternative branch has more coverage. Returns the
// number of k-mers removed. Call repeatedly (or use Assemble) until 0.
func (g *Graph) ClipTips() int {
	var sbuf, pbuf []dna.Kmer
	maxLen := g.cfg.TipFactor * g.cfg.K
	if maxLen <= 0 {
		maxLen = 2 * g.cfg.K
	}
	removed := 0
	// Collect source k-mers (no predecessors) and sink k-mers.
	var tips [][]dna.Kmer
	for km := range g.counts {
		if len(g.predecessors(km, pbuf)) == 0 {
			if chain, ok := g.tipChain(km, true, maxLen); ok {
				tips = append(tips, chain)
			}
		} else if len(g.successors(km, sbuf)) == 0 {
			if chain, ok := g.tipChain(km, false, maxLen); ok {
				tips = append(tips, chain)
			}
		}
	}
	for _, chain := range tips {
		for _, km := range chain {
			if g.counts[km] > 0 {
				delete(g.counts, km)
				removed++
			}
		}
	}
	return removed
}

// tipChain walks from a dead end toward the graph and reports the chain
// if it is short and attaches to a junction with a stronger alternative.
func (g *Graph) tipChain(start dna.Kmer, fwd bool, maxLen int) ([]dna.Kmer, bool) {
	var nbuf, bbuf []dna.Kmer
	chain := []dna.Kmer{start}
	cur := start
	for len(chain) <= maxLen {
		var next []dna.Kmer
		if fwd {
			next = g.successors(cur, nbuf)
		} else {
			next = g.predecessors(cur, nbuf)
		}
		if len(next) != 1 {
			return nil, false // branches or double dead end: not a tip
		}
		nb := next[0]
		var back []dna.Kmer
		if fwd {
			back = g.predecessors(nb, bbuf)
		} else {
			back = g.successors(nb, bbuf)
		}
		if len(back) > 1 {
			// Junction reached: tip if an alternative branch is stronger.
			var chainCov, bestAlt int32
			for _, km := range chain {
				chainCov += g.counts[km]
			}
			chainMean := chainCov / int32(len(chain))
			for _, alt := range back {
				if alt != cur && g.counts[alt] > bestAlt {
					bestAlt = g.counts[alt]
				}
			}
			if bestAlt > chainMean {
				return chain, true
			}
			return nil, false
		}
		chain = append(chain, nb)
		cur = nb
	}
	return nil, false
}

// Assemble runs the full baseline: build, iterated tip clipping, unitig
// extraction, and length filtering.
func Assemble(reads []dna.Read, cfg Config) ([][]byte, error) {
	g, err := Build(reads, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		if g.ClipTips() == 0 {
			break
		}
	}
	var contigs [][]byte
	for _, u := range g.Unitigs() {
		if len(u.Seq) >= cfg.MinContigLen {
			contigs = append(contigs, u.Seq)
		}
	}
	return contigs, nil
}
