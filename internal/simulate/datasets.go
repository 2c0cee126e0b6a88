package simulate

import "fmt"

// The ten major genera the paper observes in its gut-microbiome data sets
// (§VI.E), with their phylum assignments. Genera sharing a phylum derive
// from a shared simulated ancestor, so their reads overlap and their graph
// nodes co-cluster — the effect Fig. 7 demonstrates.
var gutGenera = []struct {
	genus, phylum string
}{
	{"Alistipes", "Bacteroidetes"},
	{"Bacteroides", "Bacteroidetes"},
	{"Prevotella", "Bacteroidetes"},
	{"Parabacteroides", "Bacteroidetes"},
	{"Clostridium", "Firmicutes"},
	{"Eubacterium", "Firmicutes"},
	{"Faecalibacterium", "Firmicutes"},
	{"Roseburia", "Firmicutes"},
	{"Escherichia", "Proteobacteria"},
	{"Acinetobacter", "Proteobacteria"},
}

// PaperDataSet returns the spec for one of the three synthetic analogues of
// the paper's data sets (id 1..3, Table I). scale linearly multiplies all
// genome lengths; scale=1 gives a per-genome length around 12 kb — small
// enough for CI, large enough that all graph stages are exercised. The
// three sets differ in diversity and repeat content so that, as in the
// paper, set 1 is the least complex and set 2 the most complex.
func PaperDataSet(id int, scale float64) (CommunitySpec, error) {
	if scale <= 0 {
		return CommunitySpec{}, fmt.Errorf("simulate: scale %v", scale)
	}
	L := func(n int) int { return int(float64(n) * scale) }
	spec := CommunitySpec{Name: fmt.Sprintf("D%d", id)}
	// Backbones of related genera are >10% diverged (no cross-alignment
	// at the assembler's 90% identity threshold); conserved loci stay at
	// ~2% divergence and provide the cross-genus connectivity that Fig. 7
	// observes between related genera.
	switch id {
	case 1:
		// Least complex: fewer genera, skewed abundances, no repeats.
		spec.Seed = 101
		spec.ConservedFrac = 0.10
		spec.ConservedLen = L(600)
		spec.ConservedDiv = 0.02
		for i, g := range gutGenera[:6] {
			spec.Genera = append(spec.Genera, GenusSpec{
				Genus: g.genus, Phylum: g.phylum,
				GenomeLen:  L(12000),
				Abundance:  1.0 / float64(i+1),
				Divergence: 0.13,
			})
		}
	case 2:
		// Most complex: all ten genera, longest genomes, repeats, more
		// conserved sequence (denser cross-genus connectivity -> higher
		// edge cut).
		spec.Seed = 202
		spec.RepeatLen = L(400)
		spec.RepeatCopies = 4
		// Conserved loci (rRNA operons, housekeeping genes) occupy up to
		// ~10% of real bacterial genomes; D2 sits at that upper end.
		spec.ConservedFrac = 0.10
		spec.ConservedLen = L(700)
		spec.ConservedDiv = 0.02
		for _, g := range gutGenera {
			spec.Genera = append(spec.Genera, GenusSpec{
				Genus: g.genus, Phylum: g.phylum,
				GenomeLen:  L(15000),
				Abundance:  1.0,
				Divergence: 0.11,
			})
		}
	case 3:
		// Intermediate: all ten genera, moderate lengths, light repeats.
		spec.Seed = 303
		spec.RepeatLen = L(300)
		spec.RepeatCopies = 2
		spec.ConservedFrac = 0.12
		spec.ConservedLen = L(600)
		spec.ConservedDiv = 0.02
		for i, g := range gutGenera {
			spec.Genera = append(spec.Genera, GenusSpec{
				Genus: g.genus, Phylum: g.phylum,
				GenomeLen:  L(12000),
				Abundance:  1.0 / float64(1+i%3),
				Divergence: 0.12,
			})
		}
	default:
		return CommunitySpec{}, fmt.Errorf("simulate: unknown paper data set %d", id)
	}
	return spec, nil
}

// PaperReadConfig returns the read sampler configuration used for the
// paper-analogue data sets: 100 bp reads (matching Table I), 3'-degrading
// error profile, and a short adapter so preprocessing has work to do.
func PaperReadConfig(id int, coverage float64) ReadConfig {
	return ReadConfig{
		ReadLen:    100,
		Coverage:   coverage,
		ErrorRate5: 0.001,
		ErrorRate3: 0.02,
		Seed:       int64(1000 + id),
		AdapterLen: 8,
	}
}

// SingleGenome returns a one-genome community spec, used by the quickstart
// example and the end-to-end assembly tests.
func SingleGenome(name string, length int, seed int64) CommunitySpec {
	return CommunitySpec{
		Name: name,
		Seed: seed,
		Genera: []GenusSpec{{
			Genus: "Testus", Phylum: "Testia",
			GenomeLen: length, Abundance: 1, Divergence: 0,
		}},
	}
}
