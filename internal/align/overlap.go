package align

import "fmt"

// Kind classifies the geometric relationship between two overlapping
// reads A and B (paper §II.B: "the prefix of rr is the suffix of rq or
// vice versa or ... one read is completely contained in the other").
type Kind uint8

const (
	// KindNone means the pair does not form a usable overlap.
	KindNone Kind = iota
	// KindSuffixPrefix: a suffix of A aligns to a prefix of B; A precedes
	// B on the underlying sequence.
	KindSuffixPrefix
	// KindPrefixSuffix: a prefix of A aligns to a suffix of B; B precedes
	// A on the underlying sequence.
	KindPrefixSuffix
	// KindAContainsB: B aligns inside A.
	KindAContainsB
	// KindBContainsA: A aligns inside B.
	KindBContainsA
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSuffixPrefix:
		return "suffix-prefix"
	case KindPrefixSuffix:
		return "prefix-suffix"
	case KindAContainsB:
		return "a-contains-b"
	case KindBContainsA:
		return "b-contains-a"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Overlap describes a scored overlap between two reads.
type Overlap struct {
	Kind     Kind
	Length   int     // alignment length in columns
	Identity float64 // fraction of matching columns
	Diag     int     // offset of B's start in A coordinates
	Score    int     // alignment score
}

// Config bounds which overlaps are accepted.
type Config struct {
	MinLength   int     // minimum alignment length (paper: 50 bp)
	MinIdentity float64 // minimum identity (paper: 0.90)
	Band        int     // NW band half-width
	Scoring     Scoring
}

// DefaultConfig mirrors the thresholds the paper used in §VI.A.
func DefaultConfig() Config {
	return Config{MinLength: 50, MinIdentity: 0.90, Band: 6, Scoring: DefaultScoring}
}

// OverlapOnDiagonal aligns reads a and b assuming b starts at offset diag
// in a's coordinate system (as implied by a shared k-mer seed), classifies
// the overlap geometry, and applies the config thresholds. ok is false
// when no acceptable overlap exists on that diagonal.
func OverlapOnDiagonal(a, b []byte, diag int, cfg Config) (Overlap, bool) {
	var s Scratch
	return s.OverlapOnDiagonal(a, b, diag, cfg)
}

// OverlapOnDiagonal is the buffer-reusing variant of the package-level
// function: identical results, with the banded DP running in the Scratch's
// borrowed buffers (zero steady-state allocations).
func (scr *Scratch) OverlapOnDiagonal(a, b []byte, diag int, cfg Config) (Overlap, bool) {
	// The overlapping window in a is [aLo, aHi), in b it is [bLo, bHi).
	aLo, bLo := diag, 0
	if aLo < 0 {
		bLo = -diag
		aLo = 0
	}
	aHi := len(a)
	if end := diag + len(b); end < aHi {
		aHi = end
	}
	bHi := aHi - diag
	if aHi <= aLo || bHi <= bLo {
		return Overlap{}, false
	}
	// Infeasible window: both sides of the window have length n, so an
	// alignment with g gaps per side has n+g columns and at most n-g
	// matches. Reaching MinLength needs g >= MinLength-n, and the identity
	// bound (n-g)/(n+g) only falls as g grows, so if it misses MinIdentity
	// at the smallest such g no alignment of this window can be accepted
	// (same float64 division and comparison as the check below, so the
	// verdict is the DP's exactly).
	n := aHi - aLo
	g := max(cfg.MinLength-n, 0)
	if float64(n-g)/float64(n+g) < cfg.MinIdentity {
		scr.fastInfeasible++
		return Overlap{}, false
	}
	aln := scr.BandedNW(a[aLo:aHi], b[bLo:bHi], cfg.Band, cfg.Scoring)
	ov := Overlap{
		Length:   aln.Columns,
		Identity: aln.Identity(),
		Diag:     diag,
		Score:    aln.Score,
	}
	if aln.Columns < cfg.MinLength || ov.Identity < cfg.MinIdentity {
		return Overlap{}, false
	}
	switch {
	case diag >= 0 && diag+len(b) <= len(a):
		ov.Kind = KindAContainsB
	case diag <= 0 && -diag+len(a) <= len(b):
		ov.Kind = KindBContainsA
	case diag > 0:
		ov.Kind = KindSuffixPrefix
	default:
		ov.Kind = KindPrefixSuffix
	}
	return ov, true
}
