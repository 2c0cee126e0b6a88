// Package simulate generates synthetic microbial communities and
// Illumina-like short reads. It stands in for the paper's NCBI SRA gut
// microbiome data sets (SRR513170, SRR513441, SRR061581): the experiments
// need (a) linear genomes, so that overlap-graph neighbourhoods correspond
// to contiguous genomic regions, (b) a community of genera with known
// phylum-level relatedness, and (c) high-coverage reads with a 3'-degrading
// error profile. All three are produced here with fixed seeds so every
// experiment is reproducible.
package simulate

import (
	"fmt"
	"math/rand"
)

// Genome is a simulated circular-free (linear) reference sequence with its
// taxonomic labels.
type Genome struct {
	ID     string
	Genus  string
	Phylum string
	Seq    []byte
}

// GenusSpec describes one genus in a community.
type GenusSpec struct {
	Genus     string
	Phylum    string
	GenomeLen int
	// Abundance is the relative share of reads sampled from this genome.
	Abundance float64
	// Divergence is the per-base substitution rate applied to the phylum
	// ancestor when deriving this genome's backbone. Real related genera
	// are well over 10% diverged outside conserved loci, so typical
	// values are 0.10-0.15: high enough that backbone reads do NOT
	// cross-align at the assembler's 90% identity threshold.
	Divergence float64
}

// CommunitySpec describes a whole simulated metagenome.
type CommunitySpec struct {
	Name   string
	Seed   int64
	Genera []GenusSpec
	// RepeatLen/RepeatCopies control intra-genome repeats: each genome gets
	// RepeatCopies copies of a shared repeat element of RepeatLen bases
	// inserted at random positions (0 disables). Repeats are what make
	// later coarsening levels over-reduce, motivating the hybrid graph.
	RepeatLen    int
	RepeatCopies int
	// Conserved segments model the loci (rRNA operons, housekeeping
	// genes) that stay near-identical between related genera: per
	// phylum, windows of ConservedLen bases covering roughly
	// ConservedFrac of the ancestor are copied into each member genome
	// with only ConservedDiv substitution. Reads from these windows are
	// what cross-connect same-phylum genera in the overlap graph — the
	// Fig. 7 signal — while the diverged backbone stays genus-specific.
	ConservedFrac float64
	ConservedLen  int
	ConservedDiv  float64
}

// Community is a realized community: the genomes plus the spec that
// produced them.
type Community struct {
	Spec    CommunitySpec
	Genomes []Genome
}

var bases = [4]byte{'A', 'C', 'G', 'T'}

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = bases[rng.Intn(4)]
	}
	return s
}

// mutate returns a copy of seq with substitutions at the given rate.
func mutate(rng *rand.Rand, seq []byte, rate float64) []byte {
	out := append([]byte(nil), seq...)
	for i := range out {
		if rng.Float64() < rate {
			b := bases[rng.Intn(4)]
			for b == out[i] {
				b = bases[rng.Intn(4)]
			}
			out[i] = b
		}
	}
	return out
}

// BuildCommunity realizes a community spec deterministically from its seed.
func BuildCommunity(spec CommunitySpec) (*Community, error) {
	if len(spec.Genera) == 0 {
		return nil, fmt.Errorf("simulate: community %q has no genera", spec.Name)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// One ancestor per phylum, long enough for the longest member genome.
	ancestorLen := map[string]int{}
	for _, g := range spec.Genera {
		if g.GenomeLen <= 0 {
			return nil, fmt.Errorf("simulate: genus %s has genome length %d", g.Genus, g.GenomeLen)
		}
		if g.GenomeLen > ancestorLen[g.Phylum] {
			ancestorLen[g.Phylum] = g.GenomeLen
		}
	}
	ancestors := map[string][]byte{}
	// Deterministic iteration order: walk genera, creating ancestors on
	// first sight of each phylum.
	for _, g := range spec.Genera {
		if _, ok := ancestors[g.Phylum]; !ok {
			ancestors[g.Phylum] = randomSeq(rng, ancestorLen[g.Phylum])
		}
	}

	var repeat []byte
	if spec.RepeatLen > 0 && spec.RepeatCopies > 0 {
		repeat = randomSeq(rng, spec.RepeatLen)
	}

	// Conserved window positions per phylum, chosen on the ancestor.
	conserved := map[string][][2]int{} // phylum -> [start,end) windows
	if spec.ConservedFrac > 0 && spec.ConservedLen > 0 {
		// Shortest member genome per phylum bounds window placement so
		// every member receives every window.
		minLen := map[string]int{}
		for _, g := range spec.Genera {
			if cur, ok := minLen[g.Phylum]; !ok || g.GenomeLen < cur {
				minLen[g.Phylum] = g.GenomeLen
			}
		}
		for _, g := range spec.Genera {
			p := g.Phylum
			if _, done := conserved[p]; done {
				continue
			}
			L := minLen[p]
			wl := spec.ConservedLen
			if wl > L {
				wl = L
			}
			n := int(spec.ConservedFrac*float64(L))/wl + 1
			stride := L / n
			var windows [][2]int
			for w := 0; w < n; w++ {
				start := w * stride
				end := start + wl
				if end > L {
					end = L
				}
				windows = append(windows, [2]int{start, end})
			}
			conserved[p] = windows
		}
	}

	com := &Community{Spec: spec}
	for i, g := range spec.Genera {
		ancestor := ancestors[g.Phylum][:g.GenomeLen]
		seq := mutate(rng, ancestor, g.Divergence)
		div := spec.ConservedDiv
		for _, w := range conserved[g.Phylum] {
			// Re-derive the window from the ancestor at low divergence.
			copy(seq[w[0]:w[1]], mutate(rng, ancestor[w[0]:w[1]], div))
		}
		for c := 0; c < spec.RepeatCopies && repeat != nil; c++ {
			if len(seq) <= len(repeat) {
				break
			}
			at := rng.Intn(len(seq) - len(repeat))
			copy(seq[at:], repeat)
		}
		com.Genomes = append(com.Genomes, Genome{
			ID:     fmt.Sprintf("g%02d_%s", i, g.Genus),
			Genus:  g.Genus,
			Phylum: g.Phylum,
			Seq:    seq,
		})
	}
	return com, nil
}

// TotalBases returns the summed genome length of the community.
func (c *Community) TotalBases() int {
	n := 0
	for _, g := range c.Genomes {
		n += len(g.Seq)
	}
	return n
}
