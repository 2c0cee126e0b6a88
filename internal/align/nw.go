// Package align implements banded Needleman–Wunsch global alignment and
// the overlap classification Focus uses to turn read pairs into overlap
// graph edges (paper §II.B): suffix/prefix overlaps in either orientation
// and containments, each scored by alignment length and percent identity.
package align

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Scoring holds the alignment score parameters. The zero value is not
// usable; use DefaultScoring.
type Scoring struct {
	Match    int
	Mismatch int // negative
	Gap      int // negative
}

// DefaultScoring matches a standard unit-cost overlap configuration.
var DefaultScoring = Scoring{Match: 1, Mismatch: -1, Gap: -2}

// Alignment is the result of a global alignment of two (sub)sequences.
type Alignment struct {
	Score   int
	Matches int // exactly matching columns
	Columns int // total alignment columns (matches + mismatches + gaps)
}

// Identity returns the fraction of alignment columns that match.
func (a Alignment) Identity() float64 {
	if a.Columns == 0 {
		return 0
	}
	return float64(a.Matches) / float64(a.Columns)
}

// traceback directions.
const (
	tbNone byte = iota
	tbDiag
	tbUp   // gap in b (consume a[i])
	tbLeft // gap in a (consume b[j])
)

// Scratch holds reusable buffers for the banded DP kernels so the
// alignment inner loop performs zero heap allocations steady-state: the
// scalar kernel's score/trace arrays, and the bit-parallel kernel's
// per-query Eq masks, per-scoring add table and per-row direction masks
// (see bitnw.go). A Scratch is owned by exactly one goroutine at a time
// (it is not internally synchronized); the buffers are borrowed by each
// call and their contents are undefined between calls. The zero value is
// ready to use and grows on demand.
type Scratch struct {
	score []int
	trace []byte

	// Bit-parallel kernel state (bitnw.go).
	eqBits   []uint64 // 256 rows x eqStride words: per-byte match masks over b
	eqStride int
	eqSeen   [4]uint64   // byte-set of the previous b (Eq rows to clear)
	adjTab   [256]uint64 // matchbit byte -> per-lane diagonal adjustment
	adjDelta int         // Match-Mismatch the adjTab was built for
	// Per-row packed traceback masks, 2 words per row: bit 7 of each lane
	// is "up strictly beats diag", bit 6 "left strictly beats max(diag,up)".
	bpTB []uint64

	// bpFallbacks counts calls where the bit-parallel kernel bailed out
	// mid-flight to the scalar path (range-guard trip). Test observability
	// only; eligible default-scoring inputs never trip the guards.
	bpFallbacks int
	// Verdict traffic, test observability only: equal-length calls answered
	// by the unique-ungapped-optimum rule (BandedNW), windows rejected as
	// infeasible before any alignment (OverlapOnDiagonal), and calls that
	// ran a DP kernel.
	fastUngapped   int
	fastInfeasible int
	dpCalls        int
}

// grow ensures capacity for n DP cells without clearing: every in-band
// cell is written before it is read, and the traceback only follows
// freshly written directions, so stale contents are never observed.
func (s *Scratch) grow(n int) {
	if cap(s.score) < n {
		s.score = make([]int, n)
		s.trace = make([]byte, n)
	}
	s.score = s.score[:n]
	s.trace = s.trace[:n]
}

// BandedNW globally aligns a and b restricting the DP to |i-j| <= band
// ("banded Needleman–Wunsch", paper §II.B). If the length difference
// exceeds the band the band is widened to fit, since a global alignment
// must reach the corner cell. It returns the alignment summary.
// It allocates fresh DP buffers per call; hot paths should hold a Scratch
// and call its method instead.
func BandedNW(a, b []byte, band int, sc Scoring) Alignment {
	var s Scratch
	return s.BandedNW(a, b, band, sc)
}

// BandedNW is the buffer-reusing variant of the package-level BandedNW:
// identical results, but the DP buffers are borrowed from the Scratch, so
// steady-state calls allocate nothing. The kernel is chosen from the
// input: none when the ungapped alignment is provably the unique optimum
// (ungappedOptimum), the bit-parallel kernel when the band and scoring fit
// its 8-bit lanes (bpEligible), the scalar DP otherwise — all three
// produce identical Alignments (score, matches, columns — bit-for-bit).
func (scr *Scratch) BandedNW(a, b []byte, band int, sc Scoring) Alignment {
	if band < 0 {
		band = 0
	}
	if d := len(a) - len(b); d > band || -d > band {
		if d < 0 {
			d = -d
		}
		band = d
	}
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		// Pure gap alignment.
		return Alignment{Score: (n + m) * sc.Gap, Matches: 0, Columns: n + m}
	}
	if n == m {
		if aln, ok := ungappedOptimum(a, b, sc); ok {
			scr.fastUngapped++
			return aln
		}
	}
	scr.dpCalls++
	if bpEligible(band, sc) {
		if aln, ok := scr.bandedNWBit(a, b, band, sc); ok {
			return aln
		}
		scr.bpFallbacks++
	}
	return scr.bandedNWScalar(a, b, band, sc)
}

// ungappedOptimum answers an equal-length alignment without running a
// kernel when the gap-free alignment is provably the unique optimum. With
// n = len(a) = len(b) and m mismatching positions the gap-free alignment
// scores n*Match - m*(Match-Mismatch). Any other alignment has g >= 1 gaps
// on each side, hence n-g diagonal columns worth at most Match each, and
// scores at most (n-g)*Match + 2g*Gap <= (n-1)*Match + 2*Gap (given
// Match > 0 > Gap and Mismatch < Match). The gap-free score is strictly
// larger iff m*(Match-Mismatch) < Match - 2*Gap, i.e. m <= lim below (2 for
// DefaultScoring). A unique optimum is what every kernel's traceback
// follows whatever its band (the main diagonal is in every band) and
// tie-break order, so Matches = n-m and Columns = n are exact as well.
// Scorings outside those sign conditions switch the rule off.
func ungappedOptimum(a, b []byte, sc Scoring) (Alignment, bool) {
	delta := sc.Match - sc.Mismatch
	if sc.Match <= 0 || sc.Gap >= 0 || delta <= 0 {
		return Alignment{}, false
	}
	lim := (sc.Match - 2*sc.Gap - 1) / delta
	n := len(a)
	m := mismatchesUpTo(a, b[:n], lim)
	if m > lim {
		return Alignment{}, false
	}
	return Alignment{Score: n*sc.Match - m*delta, Matches: n - m, Columns: n}, true
}

// mismatchesUpTo counts the positions where the equal-length a and b
// differ, eight bytes per compare, giving up (with some count > lim) as
// soon as the count exceeds lim.
func mismatchesUpTo(a, b []byte, lim int) int {
	m, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		if x == 0 {
			continue
		}
		// Fold each byte's difference bits into its low bit.
		x |= x >> 4
		x |= x >> 2
		x |= x >> 1
		if m += bits.OnesCount64(x & bpLaneLSB); m > lim {
			return m
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			m++
		}
	}
	return m
}

// bandedNWScalar is the cell-by-cell scalar DP. band has already been
// widened to cover the length difference and n, m >= 1. Its tie-break
// order — diagonal wins ties, up displaces only when strictly greater,
// left only when strictly greater than both — is the traceback contract
// every kernel must reproduce (DESIGN.md §12).
func (scr *Scratch) bandedNWScalar(a, b []byte, band int, sc Scoring) Alignment {
	n, m := len(a), len(b)
	width := 2*band + 1
	// score[i][c] with c = j - i + band, j in [i-band, i+band]. In this
	// layout a cell's neighbours sit at fixed offsets: diagonal (i-1,j-1)
	// at the same c in the previous row, up (i-1,j) at c+1 in the previous
	// row, left (i,j-1) at c-1 in the same row — so the kernel needs no
	// per-cell index arithmetic or in-band predicate calls.
	scr.grow((n + 1) * width)
	score := scr.score
	trace := scr.trace

	// Row 0: pure-gap prefix of b.
	score[band] = 0
	trace[band] = tbNone
	jHi0 := band
	if jHi0 > m {
		jHi0 = m
	}
	for j := 1; j <= jHi0; j++ {
		score[band+j] = j * sc.Gap
		trace[band+j] = tbLeft
	}

	for i := 1; i <= n; i++ {
		rowOff := i * width
		prevOff := rowOff - width
		jLo, jHi := i-band, i+band
		if jLo < 0 {
			jLo = 0
		}
		if jHi > m {
			jHi = m
		}
		j := jLo
		if j == 0 {
			// Column 0: pure-gap prefix of a.
			p := rowOff + band - i
			score[p] = i * sc.Gap
			trace[p] = tbUp
			j = 1
		}
		ai := a[i-1]
		for ; j <= jHi; j++ {
			c := j - i + band
			p := rowOff + c
			// Diagonal predecessor is always in band for i,j >= 1.
			s := score[prevOff+c]
			if ai == b[j-1] {
				s += sc.Match
			} else {
				s += sc.Mismatch
			}
			best, dir := s, tbDiag
			if c < 2*band { // up (i-1,j) in band
				if s := score[prevOff+c+1] + sc.Gap; s > best {
					best, dir = s, tbUp
				}
			}
			if c > 0 { // left (i,j-1) in band
				if s := score[p-1] + sc.Gap; s > best {
					best, dir = s, tbLeft
				}
			}
			score[p] = best
			trace[p] = dir
		}
	}

	idx := func(i, j int) int { return i*width + (j - i + band) }
	aln := Alignment{Score: score[idx(n, m)]}
	// Traceback to count matches and columns.
	i, j := n, m
	for i > 0 || j > 0 {
		switch trace[idx(i, j)] {
		case tbDiag:
			if a[i-1] == b[j-1] {
				aln.Matches++
			}
			i--
			j--
		case tbUp:
			i--
		case tbLeft:
			j--
		default:
			// Unreachable for a well-formed DP; guard against loops.
			panic(fmt.Sprintf("align: broken traceback at (%d,%d)", i, j))
		}
		aln.Columns++
	}
	return aln
}

// NW is the unbanded Needleman–Wunsch reference implementation (used in
// tests and for very short sequences).
func NW(a, b []byte, sc Scoring) Alignment {
	band := len(a) + len(b)
	return BandedNW(a, b, band, sc)
}
