package align

import (
	"fmt"
	"math"
	"math/bits"
)

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
	scr.kernel = false
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
	// A band past the window already spans the whole matrix; the clamp
	// keeps an absurd one (a worker takes it off the wire) from sizing the
	// DP buffers.
	wa, wb, band := a[aLo:aHi], b[bLo:bHi], min(max(cfg.Band, 0), n)
	// The ungapped alignment's n-m matches are a lower bound on L below, so
	// the identity bound can only reject where they miss MinIdentity. The
	// count is taken once and serves the certificate too.
	m := mismatchesUpTo(wa, wb, n)
	if float64(n-m)/float64(n) < cfg.MinIdentity && scr.bandLCSBelow(wa, wb, band, minMatches(n, cfg.MinIdentity)) {
		scr.fastRejected++
		return Overlap{}, false
	}
	aln := scr.equalNW(wa, wb, band, cfg.Scoring, m)
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

// StrandSymmetric reports whether the last OverlapOnDiagonal verdict came
// without a DP kernel: an empty or infeasible window, the identity bound,
// or the ungapped-optimum certificate. Such a verdict is strand-symmetric.
// On (rc(a), rc(b), len(a)-len(b)-diag) — the same pair read on the other
// strand, where rc complements A<->T, C<->G and N<->N — the window is the
// reverse complement of this one. Its length, mismatch count and banded
// LCS are this window's. A path's reversal is a path with the same penalty,
// so the certificate answers alike. The verdict there is therefore this
// one's mirror: same acceptance, Length, Identity and Score, Diag
// len(a)-len(b)-diag, suffix-prefix and prefix-suffix swapped, containments
// kept. A kernel's traceback breaks ties toward the diagonal, then up, then
// left, and reversing the strings reverses those preferences, so a kernel
// verdict's Length and Identity can differ between the strands.
func (scr *Scratch) StrandSymmetric() bool { return !scr.kernel }

// lcsMaxBand bounds bandLCSBelow's band: the 2*band+1 in-band columns of a
// row fit one word.
const lcsMaxBand = 31

// minMatches is the fewest matches an alignment of at least n columns needs
// to pass minID: the smallest L for which the verdict's own test,
// float64(L)/float64(n) < minID, is false (n+1 if it holds even at n). With
// at most L-1 matches over Columns >= n the identity is at most
// float64(L-1)/float64(n) — correctly rounded division is monotone in both
// operands — and that is below minID.
func minMatches(n int, minID float64) int {
	switch {
	case !(minID > 0): // NaN too: the verdict's test never holds
		return 0
	case minID > 1:
		return n + 1
	}
	l := int(math.Ceil(minID * float64(n)))
	for l > 0 && !(float64(l-1)/float64(n) < minID) {
		l--
	}
	for l <= n && float64(l)/float64(n) < minID {
		l++
	}
	return l
}

// bandLCSBelow reports whether L, the banded LCS of the equal-length a and
// b, is below need; false means it is not, or that the band is too wide to
// tell. L is the most matches a chain of in-band match cells can have, so no
// alignment within the band has more, and since the band is a convex set of
// diagonals every such chain lies on an in-band path: L is the banded DP
// maximum of matches. It is computed with the Allison–Dix/Hyyrö bit-vector
// recurrence V <- (V + (V&M)) | (V&^M) over one word holding row i's
// columns i-band..i+band — bit set where the DP value does not rise from
// the column to its left — and M the row's match bits from the Eq masks the
// bit-parallel kernel builds. The window slides one column a row: the
// column entering on the right has no in-band cell above it and enters as a
// set bit, the column leaving on the left is frozen, its rise counted into
// base (the DP value left of the window; a frozen cell can only feed the
// first in-band cell from the left, where the cell above it is no smaller).
// Absent columns (j <= 0, j > n) have no match bits and stay set. After row
// i, l = base + the window's rises is the row maximum: L >= l, since every
// in-band cell reaches (n, n) in band, and L <= l + n - i, a match per row
// left; the loop stops as soon as either settles the answer.
func (scr *Scratch) bandLCSBelow(a, b []byte, band, need int) bool {
	if band > lcsMaxBand {
		return false
	}
	n := len(a)
	scr.bpBuildEq(b)
	eq, st := scr.eqBits, scr.eqStride
	// The bits above the window are kept set: each row's shift then moves
	// a set bit into the entering column, and the rises are the zero bits.
	hi := ^uint64(0) << uint(2*band+1)
	win := ^hi // in-band columns j <= n
	v, base := ^uint64(0), 0
	for i := 0; i < n; { // i rows done
		// Eight rows between the tests: a popcount a row would cost more
		// than the rows an earlier exit saves.
		for end := min(i+8, n); i < end; i++ { // row i+1
			base += int(^v & 1)
			v = v>>1 | hi
			// Match bits of a[i] against b[i-band .. i+band]. The second
			// word of an unaligned read may belong to the next Eq row (or
			// the arena's pad word); those bits only land on columns past n.
			row, p := int(a[i])*st, i-band
			var mb uint64
			if p >= 0 {
				r := uint(p) & 63
				q := row + p>>6
				mb = eq[q]>>r | eq[q+1]<<1<<(r^63)
			} else {
				mb = eq[row] << (uint(-p) & 63)
			}
			if i+band >= n {
				win = ^hi >> (uint(i+band+1-n) & 63)
			}
			u := v & mb & win
			v = (v + u) | (v - u)
		}
		l := base + bits.OnesCount64(^v)
		if l+n-i < need {
			return true
		}
		if l >= need {
			return false
		}
	}
	return false // unreachable: after row n, l is L and one test holds
}
