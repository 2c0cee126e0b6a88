package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"focus/internal/dna"
)

// ReadConfig controls the Illumina-like read sampler.
type ReadConfig struct {
	ReadLen  int
	Coverage float64 // mean fold coverage across the community
	// ErrorRate5 and ErrorRate3 are the substitution probabilities at the
	// 5' and 3' ends; the rate ramps linearly along the read, matching the
	// 3'-degrading quality profile that the paper's sliding-window trimmer
	// (§II.A) is designed for.
	ErrorRate5 float64
	ErrorRate3 float64
	// IndelRate is the per-base probability of a 1 bp insertion or
	// deletion (Illumina-realistically much rarer than substitutions; the
	// banded alignment absorbs the resulting diagonal shifts). Reads keep
	// their configured length by consuming extra template.
	IndelRate float64
	Seed      int64
	// AdapterLen, when > 0, prefixes every read with that many adapter
	// bases (a fixed synthetic adapter), exercising the fixed-length
	// 5' trimming step.
	AdapterLen int
}

// Origin is the ground-truth provenance of a simulated read.
type Origin struct {
	GenomeID string
	Pos      int
	Reverse  bool
}

// ReadSet is a simulated read data set with ground truth.
type ReadSet struct {
	Name    string
	Reads   []dna.Read
	Origins []Origin // parallel to Reads
}

// adapter returns the fixed synthetic adapter sequence of length n.
func adapter(n int) []byte {
	const motif = "AGATCGGAAGAGC" // Illumina TruSeq adapter prefix
	out := make([]byte, n)
	for i := range out {
		out[i] = motif[i%len(motif)]
	}
	return out
}

// errorRateAt interpolates the substitution rate at base i of a read.
func (c ReadConfig) errorRateAt(i int) float64 {
	if c.ReadLen <= 1 {
		return c.ErrorRate5
	}
	f := float64(i) / float64(c.ReadLen-1)
	return c.ErrorRate5 + f*(c.ErrorRate3-c.ErrorRate5)
}

// phredFor converts an error probability to a Phred+33 quality byte, with
// light noise so quality strings are not perfectly smooth.
func phredFor(rng *rand.Rand, p float64) byte {
	if p < 1e-5 {
		p = 1e-5
	}
	q := -10 * math.Log10(p)
	q += rng.NormFloat64() * 2
	if q < 2 {
		q = 2
	}
	if q > 41 {
		q = 41
	}
	return byte(33 + int(q+0.5))
}

// SimulateReads samples reads from the community at the configured
// coverage. Reads are drawn from genomes proportionally to abundance and
// from a uniformly random strand. Read IDs encode ground truth as
// "r<idx>|<genomeID>|<pos>|<+/->" so downstream evaluation (Fig. 7) can
// recover provenance without a side table.
func SimulateReads(com *Community, cfg ReadConfig) (*ReadSet, error) {
	if cfg.ReadLen <= 0 {
		return nil, fmt.Errorf("simulate: read length %d", cfg.ReadLen)
	}
	if cfg.Coverage <= 0 {
		return nil, fmt.Errorf("simulate: coverage %v", cfg.Coverage)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	totalAb := 0.0
	for _, g := range com.Spec.Genera {
		totalAb += g.Abundance
	}
	if totalAb <= 0 {
		return nil, fmt.Errorf("simulate: community %q has zero total abundance", com.Spec.Name)
	}

	totalReads := int(float64(com.TotalBases()) * cfg.Coverage / float64(cfg.ReadLen))
	rs := &ReadSet{Name: com.Spec.Name}
	ad := adapter(cfg.AdapterLen)

	// emit appends one read sampled at pos (rev selects the strand),
	// applying the error ramp, indels, quality model and adapter prefix.
	emit := func(genome *Genome, pos int, rev bool) {
		// Take extra template so 1bp deletions cannot run off the end.
		span := cfg.ReadLen + 8
		if pos+span > len(genome.Seq) {
			span = len(genome.Seq) - pos
		}
		template := genome.Seq[pos : pos+span]
		var frag []byte
		if cfg.IndelRate > 0 {
			frag = make([]byte, 0, cfg.ReadLen)
			for ti := 0; len(frag) < cfg.ReadLen && ti < len(template); ti++ {
				if rng.Float64() < cfg.IndelRate {
					if rng.Intn(2) == 0 {
						continue // deletion: skip a template base
					}
					frag = append(frag, bases[rng.Intn(4)]) // insertion
					if len(frag) == cfg.ReadLen {
						break
					}
				}
				frag = append(frag, template[ti])
			}
			for len(frag) < cfg.ReadLen { // template exhausted: pad
				frag = append(frag, bases[rng.Intn(4)])
			}
		} else {
			frag = append([]byte(nil), template[:cfg.ReadLen]...)
		}
		if rev {
			dna.ReverseComplementInPlace(frag)
		}
		qual := make([]byte, 0, cfg.ReadLen+cfg.AdapterLen)
		seq := make([]byte, 0, cfg.ReadLen+cfg.AdapterLen)
		seq = append(seq, ad...)
		for range ad {
			qual = append(qual, phredFor(rng, 0.001))
		}
		for j, b := range frag {
			p := cfg.errorRateAt(j)
			if rng.Float64() < p {
				nb := bases[rng.Intn(4)]
				for nb == b {
					nb = bases[rng.Intn(4)]
				}
				b = nb
			}
			seq = append(seq, b)
			qual = append(qual, phredFor(rng, p))
		}
		strand := "+"
		if rev {
			strand = "-"
		}
		id := fmt.Sprintf("r%06d|%s|%d|%s", len(rs.Reads), genome.ID, pos, strand)
		rs.Reads = append(rs.Reads, dna.Read{ID: id, Seq: seq, Qual: qual})
		rs.Origins = append(rs.Origins, Origin{GenomeID: genome.ID, Pos: pos, Reverse: rev})
	}

	for i := range com.Genomes {
		genome := &com.Genomes[i]
		share := com.Spec.Genera[i].Abundance / totalAb
		n := int(float64(totalReads) * share)
		if len(genome.Seq) < cfg.ReadLen {
			return nil, fmt.Errorf("simulate: genome %s shorter than read length", genome.ID)
		}
		for r := 0; r < n; r++ {
			pos := rng.Intn(len(genome.Seq) - cfg.ReadLen + 1)
			emit(genome, pos, rng.Intn(2) == 1)
		}
	}
	return rs, nil
}

// TotalBases returns the summed read length of the set.
func (rs *ReadSet) TotalBases() int {
	n := 0
	for _, r := range rs.Reads {
		n += len(r.Seq)
	}
	return n
}
