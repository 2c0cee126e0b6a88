package assembly

import (
	"cmp"
	"slices"
	"sort"

	"focus/internal/align"
)

// The paper's stated future work (§VI.D) is variant detection run on the
// distributed hybrid graph: "For example, variant detection algorithms
// can be implemented to be run on the distributed hybrid graph." This
// file implements that extension. A candidate variant is a simple bubble:
// two branch nodes sharing the same predecessor and successor whose
// contigs align against each other. Unlike error removal (§V.C), which
// pops bubbles, variant calling reports them — substitution-like when the
// branch contigs have similar length and high identity, indel-like when
// their lengths differ.

// VariantKind classifies a called variant.
type VariantKind uint8

const (
	// VariantSubstitution: equal-length, high-identity branches (SNVs).
	VariantSubstitution VariantKind = iota
	// VariantIndel: branch lengths differ materially.
	VariantIndel
	// VariantDivergent: branches do not align (e.g. inserted segment).
	VariantDivergent
)

// String implements fmt.Stringer.
func (k VariantKind) String() string {
	switch k {
	case VariantSubstitution:
		return "substitution"
	case VariantIndel:
		return "indel"
	case VariantDivergent:
		return "divergent"
	}
	return "unknown"
}

// Variant is one called bubble or fork.
type Variant struct {
	From, To         int32 // anchor nodes; To is -1 for fork calls
	AlleleA, AlleleB int32 // branch nodes, AlleleA < AlleleB
	CovA, CovB       int64 // read support of each branch
	LenA, LenB       int32 // branch contig lengths
	Identity         float64
	Mismatches       int32 // mismatching alignment columns (when aligned)
	Kind             VariantKind
	// Reconverges is true for full bubbles (both anchors shared); fork
	// calls — two alternative extensions of one anchor whose contigs
	// still align allelically — are weaker evidence.
	Reconverges bool
}

// VariantConfig bounds variant calling.
type VariantConfig struct {
	// MinBranchCov is the minimum read support per branch: bubbles whose
	// weaker branch has less support are sequencing errors, not variants.
	MinBranchCov int64
	// MaxLenDiff separates substitutions from indels.
	MaxLenDiff int
	// Band is the alignment band for branch-vs-branch comparison.
	Band int
	// MinIdentity below which branches are reported as divergent.
	MinIdentity float64
}

// DefaultVariantConfig returns permissive defaults for high-coverage data.
func DefaultVariantConfig() VariantConfig {
	return VariantConfig{MinBranchCov: 2, MaxLenDiff: 3, Band: 16, MinIdentity: 0.6}
}

// ScanVariants finds bubble and fork variants among the partition's local
// nodes (the worker half of distributed variant calling). A bubble is two
// branches sharing both anchors; a fork is two alternative branches of a
// single anchor whose contigs still align allelically on their implied
// placement (a repeat boundary, by contrast, has unrelated continuations
// and is rejected by the identity filter).
func ScanVariants(sub *Subgraph, cfg VariantConfig) []Variant {
	ps := getPhaseScratch()
	defer putPhaseScratch(ps)
	c := ps.buildCSR(sub, viewOut|viewIn)
	var out []Variant
	for _, id := range c.local {
		ins, outs := c.liveIn(id), c.liveOut(id)
		if len(ins) != 1 || len(outs) > 1 {
			continue
		}
		u := ins[0].to
		// The edge u->id and each sibling edge u->x.
		var dID int32
		for _, a := range c.liveOut(u) {
			if a.to == id {
				dID = a.diag
				break
			}
		}
		for _, sib := range c.liveOut(u) {
			x := sib.to
			if x == id || len(c.liveIn(x)) != 1 {
				continue
			}
			// Full bubble if both branches reconverge on the same node.
			w := int32(-1)
			if xo := c.liveOut(x); len(outs) == 1 && len(xo) == 1 && xo[0].to == outs[0].to {
				w = outs[0].to
			}
			a, b, da, db := id, x, dID, sib.diag
			if c.ids[a] > c.ids[b] {
				a, b, da, db = b, a, db, da
			}
			if c.weight[a] < cfg.MinBranchCov || c.weight[b] < cfg.MinBranchCov {
				continue // error branch, not a variant
			}
			if va, ok := classifyBranches(c, u, w, a, b, da, db, cfg); ok {
				out = append(out, va)
			}
		}
	}
	// A pair is reached from both branches and through parallel edges;
	// the first call per allele pair stands.
	slices.SortStableFunc(out, func(p, q Variant) int {
		return cmp.Or(cmp.Compare(p.AlleleA, q.AlleleA), cmp.Compare(p.AlleleB, q.AlleleB))
	})
	return slices.CompactFunc(out, func(p, q Variant) bool {
		return p.AlleleA == q.AlleleA && p.AlleleB == q.AlleleB
	})
}

// classifyBranches aligns the contigs of branches a and b (local indices
// of c, placed at diagonals da and db from anchor u's contig) and
// classifies the pair; w is the reconverging anchor, or -1 for a fork. ok
// is false when the pair does not look allelic (fork into unrelated
// sequence).
func classifyBranches(c *edgeCSR, u, w, a, b, da, db int32, cfg VariantConfig) (Variant, bool) {
	ca, cb := c.contig[a], c.contig[b]
	reconverges := w >= 0
	out := Variant{
		From: c.ids[u], To: -1,
		AlleleA: c.ids[a], AlleleB: c.ids[b],
		CovA: c.weight[a], CovB: c.weight[b],
		LenA: int32(len(ca)), LenB: int32(len(cb)),
		Reconverges: reconverges,
	}
	if reconverges {
		out.To = c.ids[w]
	}
	// Placement of b's contig in a's coordinates: both diags are relative
	// to u's contig.
	diag := int(db) - int(da)
	acfg := align.Config{
		MinLength:   1,
		MinIdentity: 0,
		Band:        cfg.Band,
		Scoring:     align.DefaultScoring,
	}
	ov, okOv := align.OverlapOnDiagonal(ca, cb, diag, acfg)
	if okOv {
		out.Identity = ov.Identity
		out.Mismatches = int32(ov.Length) - int32(float64(ov.Length)*ov.Identity+0.5)
	}
	lenDiff := len(ca) - len(cb)
	if lenDiff < 0 {
		lenDiff = -lenDiff
	}
	switch {
	case !okOv || out.Identity < cfg.MinIdentity:
		out.Kind = VariantDivergent
		if !reconverges {
			// Fork into unrelated sequence: a repeat or chimera
			// boundary, not a variant.
			return out, false
		}
	case lenDiff > cfg.MaxLenDiff:
		out.Kind = VariantIndel
	default:
		out.Kind = VariantSubstitution
	}
	return out, true
}

// CallVariants runs distributed variant detection: each worker scans its
// partition, the master deduplicates (a bubble whose branches live in
// different partitions is reported by both) and returns the calls sorted
// by allele pair. Run it after transitive reduction and containment
// removal but before error removal, which would pop the bubbles.
func (d *Driver) CallVariants(cfg VariantConfig) ([]Variant, error) {
	if d.skipDone("Variants") {
		return append([]Variant(nil), d.variantsMirror...), nil
	}
	results, _, err := d.runPhase("Variants", cfg)
	if err != nil {
		return nil, err
	}
	seen := map[[2]int32]bool{}
	var out []Variant
	for _, r := range results {
		for _, va := range r.Variants {
			key := [2]int32{va.AlleleA, va.AlleleB}
			if !seen[key] {
				seen[key] = true
				out = append(out, va)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AlleleA != out[j].AlleleA {
			return out[i].AlleleA < out[j].AlleleA
		}
		return out[i].AlleleB < out[j].AlleleB
	})
	d.variantsMirror = out
	if err := d.notePhase("Variants"); err != nil {
		return nil, err
	}
	return out, nil
}
