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
	// by the ungapped-optimum certificate (BandedNW), windows rejected as
	// infeasible or by the identity bound before any alignment
	// (OverlapOnDiagonal), and calls that ran a DP kernel (a declined
	// certificate or bound counts here only).
	fastUngapped   int
	fastInfeasible int
	fastRejected   int
	dpCalls        int

	// Furthest-reaching wavefronts of the ungapped-optimum certificate
	// (ungappedOptimum): one row per penalty, one column per diagonal.
	wf []int32
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
// input: none when the ungapped alignment is provably the one every kernel
// would trace (ungappedOptimum), the bit-parallel kernel when the band and
// scoring fit its 8-bit lanes (bpEligible), the scalar DP otherwise — all
// three produce identical Alignments (score, matches, columns —
// bit-for-bit).
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
		return scr.equalNW(a, b, band, sc, mismatchesUpTo(a, b, certLimit(n, sc)))
	}
	return scr.kernelNW(a, b, band, sc)
}

// equalNW aligns an equal-length pair whose mismatch count m is known
// exactly up to certLimit (past it, any larger value will do): by the
// ungapped-optimum certificate where it answers, by a kernel otherwise.
func (scr *Scratch) equalNW(a, b []byte, band int, sc Scoring, m int) Alignment {
	if m <= certLimit(len(a), sc) {
		if aln, ok := scr.ungappedOptimum(a, b, band, sc, m); ok {
			scr.fastUngapped++
			return aln
		}
	}
	return scr.kernelNW(a, b, band, sc)
}

// kernelNW runs a DP kernel: bit-parallel where eligible, scalar otherwise.
func (scr *Scratch) kernelNW(a, b []byte, band int, sc Scoring) Alignment {
	scr.dpCalls++
	if bpEligible(band, sc) {
		if aln, ok := scr.bandedNWBit(a, b, band, sc); ok {
			return aln
		}
		scr.bpFallbacks++
	}
	return scr.bandedNWScalar(a, b, band, sc)
}

// certLimit is the most mismatches ungappedOptimum attempts on a window of
// n, or -1 when the scoring's signs switch the rule off.
func certLimit(n int, sc Scoring) int {
	delta := sc.Match - sc.Mismatch
	if sc.Match <= 0 || sc.Gap >= 0 || delta <= 0 {
		return -1
	}
	x, g := 2*delta, sc.Match-2*sc.Gap
	return max(n/(2*x), 2*g/x)
}

// ungappedOptimum answers an equal-length alignment without running a
// kernel when the gap-free alignment is provably the one every kernel
// traces (DESIGN.md §12.1). With n = len(a) = len(b), an alignment with X
// mismatch columns and e gap columns (e/2 on each side) scores n*Match less
// a penalty of X*(Match-Mismatch) + e*(Match-2*Gap)/2; given Match > 0 > Gap
// and Mismatch < Match both prices are positive and matches are free. The
// gap-free alignment, m mismatches, is a banded optimum iff no path through
// the band reaches (n, n) for less than its penalty, the budget — and such
// a path strays at most (budget-1)/(2*gap column price) diagonals, since it
// pays a gap column for every diagonal out and back. A furthest-reaching
// (diagonal-transition) search over the penalties below the budget decides
// it: wf[s][k] is the last row on diagonal k = j-i reachable for at most s,
// the furthest of wf[s-1][k], a mismatch step along k and a gap step from
// k-1 or k+1, extended through matches. (On one diagonal every row before a
// reachable one is reachable for no more, so clamping a step at the
// diagonal's end is exact.) If the corner is reached the kernel runs. If
// not, no main-diagonal cell of any kernel beats the gap-free prefix score
// — a better path to (i, i) would continue to a better one to (n, n) — and
// because the diagonal wins ties the traceback walks the main diagonal even
// when a gapped alignment ties: Score, Matches = n-m, Columns = n are exact.
// The attempt is made (certLimit) while the budget is at most n/4 in score
// units (m <= n/8 under DefaultScoring), which keeps it well below one
// kernel call, or too small for one gap pair; scorings outside the sign
// conditions switch the rule off. The caller counts m, exactly, and holds
// it to that limit.
func (scr *Scratch) ungappedOptimum(a, b []byte, band int, sc Scoring, m int) (Alignment, bool) {
	n := len(a)
	b = b[:n]
	delta := sc.Match - sc.Mismatch
	// Penalties in half units, so that one gap column (half of a pair) is
	// integral: x per mismatch, g per gap column.
	x, g := 2*delta, sc.Match-2*sc.Gap
	ungapped := Alignment{Score: n*sc.Match - m*delta, Matches: n - m, Columns: n}
	budget := m * x
	kmax := min(band, (budget-1)/(2*g))
	if kmax <= 0 {
		return ungapped, true // leaving and rejoining the main diagonal already costs the budget
	}
	// Rows s = -pad..budget-1 of width 2*kmax+3, diagonal k at column
	// k+kmax+1: the unreachable rows in front and the unreachable column
	// each side keep every predecessor read in range. Only the diamond
	// |k| <= min(s, budget-1-s)/g is ever computed — a path needs |k| gap
	// columns to get to diagonal k and as many to come back. A cell holds
	// its row plus wfBase, so that zero (and zero plus one step) reads as
	// unreachable and one memclr resets the lot.
	const wfBase = 2
	w, pad := 2*kmax+3, max(x, g)
	if need := (pad + budget) * w; cap(scr.wf) < need {
		scr.wf = make([]int32, need)
	}
	wf := scr.wf[:(pad+budget)*w]
	clear(wf)
	out, outAt := 0, g                           // out = s/g, next step at s = outAt
	back, backAt := (budget-1)/g, (budget-1)%g+1 // back = (budget-1-s)/g, next step at s = backAt
	for s := 0; s < budget; s++ {
		if s == outAt {
			out, outAt = out+1, outAt+g
		}
		if s == backAt {
			back, backAt = back-1, backAt+g
		}
		at := (pad+s)*w + kmax + 1 // cell (s, 0)
		reach := min(out, back, kmax)
		for k := -reach; k <= reach; k++ {
			c := at + k
			prev := wf[c-w]
			i := max(prev, wf[c-x*w]+1, wf[c-g*w-1], wf[c-g*w+1]+1)
			if s == 0 {
				i = wfBase // the origin
			}
			if i == prev || i < wfBase {
				wf[c] = prev // nothing new at this penalty: already extended
				continue
			}
			last := n - max(k, 0)
			r := min(int(i)-wfBase, last)
			for r < last {
				if r+8 <= last {
					d := binary.LittleEndian.Uint64(a[r:]) ^ binary.LittleEndian.Uint64(b[r+k:])
					if d == 0 {
						r += 8
						continue
					}
					r += bits.TrailingZeros64(d) >> 3
					break
				}
				if a[r] != b[r+k] {
					break
				}
				r++
			}
			wf[c] = int32(r + wfBase)
		}
		if int(wf[at]) == n+wfBase {
			return Alignment{}, false // a gapped alignment scores strictly more
		}
	}
	return ungapped, true
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
	for ; i < len(a) && m <= lim; i++ {
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
