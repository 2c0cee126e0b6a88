package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"focus/internal/simulate"
)

// overlapWindow is the equal-length window diagonal diag fixes in a and b
// (nil, nil when the reads do not meet on it).
func overlapWindow(a, b []byte, diag int) (wa, wb []byte) {
	aLo, bLo := max(diag, 0), max(-diag, 0)
	aHi := min(len(a), diag+len(b))
	if bHi := aHi - diag; aHi > aLo && bHi > bLo {
		return a[aLo:aHi], b[bLo:bHi]
	}
	return nil, nil
}

// dpOverlapOnDiagonal is the DP-only oracle of the verdict suites:
// OverlapOnDiagonal's window, thresholds and classification around
// bandedNWScalar, with none of the infeasible-window reject, the identity
// bound and the ungapped-optimum certificate.
func (scr *Scratch) dpOverlapOnDiagonal(a, b []byte, diag int, cfg Config) (Overlap, bool) {
	wa, wb := overlapWindow(a, b, diag)
	if wa == nil {
		return Overlap{}, false
	}
	aln := scr.scalarNW(wa, wb, cfg.Band, cfg.Scoring)
	if aln.Columns < cfg.MinLength || aln.Identity() < cfg.MinIdentity {
		return Overlap{}, false
	}
	ov := Overlap{Length: aln.Columns, Identity: aln.Identity(), Diag: diag, Score: aln.Score}
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

func checkVerdict(t *testing.T, scr, ref *Scratch, a, b []byte, diag int, cfg Config) {
	t.Helper()
	want, wantOK := ref.dpOverlapOnDiagonal(a, b, diag, cfg)
	got, ok := scr.OverlapOnDiagonal(a, b, diag, cfg)
	if ok != wantOK || got != want {
		t.Fatalf("verdict diverged from the DP (diag=%d cfg=%+v):\n got %+v %v\nwant %+v %v\n a=%q\n b=%q",
			diag, cfg, got, ok, want, wantOK, a, b)
	}
}

// verdictScorings spans the certificate's regimes: a gap pair dearer than
// 2 (default), 0, 1 and 8 mismatches, and the sign conditions under which
// the rule must switch itself off (Match <= 0, Gap >= 0, Mismatch >= Match).
var verdictScorings = []Scoring{
	{1, -1, -2}, // gap pair 5, mismatch 2: no search up to 2 mismatches
	{1, -5, -2}, // gap pair 5, mismatch 6: only exact windows skip the search
	{5, -1, -1}, // gap pair 7, mismatch 6
	{2, -1, -3}, // gap pair 8, mismatch 3
	{1, -1, -8}, // gap pair 17, mismatch 2: no search up to 8 mismatches
	{0, -1, -1}, // off: Match == 0
	{-1, -2, -1},
	{1, -1, 0}, // off: free gaps tie with the ungapped path
	{1, -1, 1}, // off: rewarded gaps
	{1, 1, -2}, // off: Mismatch == Match
	{1, 2, -2}, // off: Mismatch > Match
}

// certLims computes the certificate's two mismatch limits the long way,
// in score units: free is the largest m whose penalty m*(Match-Mismatch)
// one gap pair (Match-2*Gap) cannot undercut, so no search is needed; lim
// is the largest m still attempted on a window of n — free, or a penalty
// of at most n/4 if that is more. Both are -1 when the rule is off.
func certLims(n int, sc Scoring) (free, lim int) {
	if sc.Match <= 0 || sc.Gap >= 0 || sc.Mismatch >= sc.Match {
		return -1, -1
	}
	delta := sc.Match - sc.Mismatch
	for (free+1)*delta <= sc.Match-2*sc.Gap {
		free++
	}
	for lim = free; 4*(lim+1)*delta <= n; lim++ {
	}
	return free, lim
}

// hamming counts the mismatching positions of an equal-length pair byte by
// byte (the oracle for mismatchesUpTo and the routes).
func hamming(a, b []byte) (m int) {
	for i := range a {
		if a[i] != b[i] {
			m++
		}
	}
	return m
}

// route is how BandedNW must answer an equal-length window.
type route int

const (
	routeKernel   route = iota // rule off, or more mismatches than the cap: kernel, no attempt
	routeDeclined              // searched, a gapped alignment scores strictly more: kernel
	routeFree                  // certified without a search (a gap pair cannot undercut, or band 0)
	routeSearched              // certified by the wavefront search
)

// checkRoute holds one equal-length window to the scalar DP — every
// Alignment field from BandedNW, and the OverlapOnDiagonal verdict with the
// window at diagonal 0 and inside longer reads — and pins the route: the
// certificate answers exactly when the rule is on, the mismatch count is
// within the cap, and no banded alignment scores strictly more than the
// ungapped one; otherwise exactly one kernel runs.
func checkRoute(t *testing.T, a, b []byte, band int, sc Scoring) route {
	t.Helper()
	n, m := len(a), hamming(a, b)
	var scr, ref Scratch
	want := ref.scalarNW(a, b, band, sc)
	if got := scr.BandedNW(a, b, band, sc); got != want {
		t.Fatalf("BandedNW diverged (band=%d scoring=%+v m=%d):\n got %+v\nwant %+v\n a=%q\n b=%q", band, sc, m, got, want, a, b)
	}
	free, lim := certLims(n, sc)
	r := routeSearched
	switch {
	case m > lim:
		r = routeKernel
	case want.Score != n*sc.Match-m*(sc.Match-sc.Mismatch):
		r = routeDeclined
	case m <= free || band == 0:
		r = routeFree
	}
	if certified := r >= routeFree; (scr.fastUngapped == 1) != certified || scr.fastUngapped+scr.dpCalls != 1 {
		t.Fatalf("route (band=%d scoring=%+v n=%d m=%d free=%d lim=%d): ungapped=%d dp=%d, want certificate=%v\n a=%q\n b=%q",
			band, sc, n, m, free, lim, scr.fastUngapped, scr.dpCalls, certified, a, b)
	}
	if r >= routeFree && want != (Alignment{Score: want.Score, Matches: n - m, Columns: n}) {
		t.Fatalf("scalar DP did not trace the main diagonal on a certified window: %+v (n=%d m=%d)", want, n, m)
	}
	for _, cfg := range []Config{
		{Band: band, Scoring: sc},
		{MinLength: 50, MinIdentity: 0.9, Band: band, Scoring: sc},
	} {
		checkVerdict(t, &scr, &ref, a, b, 0, cfg)
		// The same window inside longer reads: a suffix of a2, a prefix of b2.
		a2 := append([]byte("GATTACA"), a...)
		b2 := append(append([]byte(nil), b...), "TGCATG"...)
		checkVerdict(t, &scr, &ref, a2, b2, 7, cfg)
		checkVerdict(t, &scr, &ref, b2, a2, -7, cfg)
	}
	return r
}

// substitute returns s with exactly the given positions changed to a
// different byte of alpha.
func substitute(rng *rand.Rand, alpha, s []byte, positions []int) []byte {
	out := append([]byte(nil), s...)
	for _, p := range positions {
		for out[p] == s[p] {
			out[p] = alpha[rng.Intn(len(alpha))]
		}
	}
	return out
}

// TestMismatchesUpTo: against a byte-by-byte count on windows of 1..40
// bases (sub-word windows, whole words, words plus a tail) the count is
// exact up to lim and some value in (lim, true count] past it; the byte
// tail stops at the first mismatch past lim just as the word loop does.
func TestMismatchesUpTo(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 40; trial++ {
			a := randSeqFrom(rng, bpAlphabets[0], n)
			b := substitute(rng, bpAlphabets[0], a, rng.Perm(n)[:rng.Intn(n+1)])
			want := hamming(a, b)
			for lim := 0; lim <= n; lim++ {
				got := mismatchesUpTo(a, b, lim)
				switch {
				case want <= lim && got != want, want > lim && (got <= lim || got > want):
					t.Fatalf("n=%d lim=%d: got %d, true count %d\n a=%q\n b=%q", n, lim, got, want, a, b)
				case want > lim && n < 8 && got != lim+1:
					t.Fatalf("n=%d lim=%d: the byte tail counted on to %d (true count %d)", n, lim, got, want)
				}
			}
		}
	}
}

// TestOverlapVerdictRandom: on overlap-shaped pairs (a shared region with
// 0..4 substitutions and sometimes one indel) and unrelated pairs, over
// every alphabet, bands 0..16, threshold and scoring sweeps, the verdict
// and every field of the overlap equal the DP-only oracle's.
func TestOverlapVerdictRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var scr, ref Scratch
	minLens := []int{0, 1, 5, 20, 50, 80}
	minIDs := []float64{0, 0.5, 0.9, 0.95, 1}
	for trial := 0; trial < 12000; trial++ {
		alpha := bpAlphabets[rng.Intn(len(bpAlphabets))]
		cfg := Config{
			MinLength:   minLens[rng.Intn(len(minLens))],
			MinIdentity: minIDs[rng.Intn(len(minIDs))],
			Band:        rng.Intn(17),
			Scoring:     verdictScorings[rng.Intn(len(verdictScorings))],
		}
		genome := randSeqFrom(rng, alpha, 300)
		a := genome[:60+rng.Intn(100)]
		off := rng.Intn(len(a))
		b := genome[off : off+40+rng.Intn(100)]
		switch rng.Intn(4) {
		case 0: // unrelated
			b = randSeqFrom(rng, alpha, len(b))
		case 1: // one indel somewhere in b
			p := rng.Intn(len(b))
			b = append(append([]byte(nil), b[:p]...), b[p+1:]...)
			fallthrough
		default:
			pos := make([]int, rng.Intn(5))
			for i := range pos {
				pos[i] = rng.Intn(len(b))
			}
			b = substitute(rng, alpha, b, pos)
		}
		diag := off
		if rng.Intn(3) == 0 {
			diag += rng.Intn(7) - 3 // seed on a neighbouring diagonal
		}
		checkVerdict(t, &scr, &ref, a, b, diag, cfg)
		checkVerdict(t, &scr, &ref, b, a, -diag, cfg)
	}
	if scr.fastUngapped == 0 || scr.fastInfeasible == 0 || scr.dpCalls == 0 {
		t.Fatalf("suite missed a path: ungapped=%d infeasible=%d dp=%d", scr.fastUngapped, scr.fastInfeasible, scr.dpCalls)
	}
}

// TestOverlapVerdictThresholdWindows walks the window length across
// MinLength-3..MinLength+3 — where the infeasible-window rule flips — with
// 0..cap+2 substitutions and an optional indel inside the window.
func TestOverlapVerdictThresholdWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var scr, ref Scratch
	alpha := bpAlphabets[1]
	for _, sc := range verdictScorings {
		for _, minLen := range []int{4, 20, 50} {
			for _, minID := range []float64{0, 0.8, 0.9, 0.97, 1} {
				for d := -3; d <= 3; d++ {
					n := minLen + d // window length
					_, lim := certLims(n, sc)
					for subs := 0; subs <= lim+2 && subs <= n; subs++ {
						for _, indel := range []bool{false, true} {
							genome := randSeqFrom(rng, alpha, 200)
							a := genome[:100]
							b := append([]byte(nil), genome[100-n:200-n]...)
							b = substitute(rng, alpha, b, rng.Perm(n)[:subs])
							if indel {
								p := rng.Intn(n)
								b = append(b[:p], b[p+1:]...)
							}
							cfg := Config{MinLength: minLen, MinIdentity: minID, Band: rng.Intn(17), Scoring: sc}
							checkVerdict(t, &scr, &ref, a, b, 100-n, cfg)
							checkVerdict(t, &scr, &ref, b, a, n-100, cfg)
						}
					}
				}
			}
		}
	}
}

// TestOverlapVerdictAtMismatchLimit pins which mismatch counts take which
// route, per scoring and window length: up to free mismatches the
// certificate answers without a search, past the cap (and with the rule
// off) the kernel always runs, and in between the search decides — it must
// answer exactly when the scalar DP finds nothing better than the ungapped
// alignment (checkRoute). Mismatches are scattered, packed into the first
// 8-byte word, and in the sub-word tail.
func TestOverlapVerdictAtMismatchLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alpha := bpAlphabets[2]
	searched := 0
	for _, sc := range verdictScorings {
		for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 100, 120} {
			free, lim := certLims(n, sc)
			for _, m := range []int{0, free - 1, free, free + 1, (free + lim) / 2, lim - 1, lim, lim + 1, lim + 2} {
				if m < 0 || m > n {
					continue
				}
				layouts := [][]int{rng.Perm(n)[:m]}
				packed := make([]int, m)
				for i := range packed {
					packed[i] = i // first word (and beyond)
				}
				tail := make([]int, m)
				for i := range tail {
					tail[i] = n - 1 - i // last bytes: the sub-word tail when n%8 != 0
				}
				layouts = append(layouts, packed, tail)
				for _, pos := range layouts {
					a := randSeqFrom(rng, alpha, n)
					b := substitute(rng, alpha, a, pos)
					switch r := checkRoute(t, a, b, rng.Intn(17), sc); {
					case m <= free && r != routeFree, m > lim && r != routeKernel:
						t.Fatalf("sc=%+v n=%d m=%d (free=%d lim=%d) took route %d", sc, n, m, free, lim, r)
					case r == routeSearched:
						searched++
					}
				}
			}
		}
	}
	if searched == 0 {
		t.Fatal("no window was certified by the wavefront search")
	}
}

// certWindows are the equal-length window generators the random suites do
// not reach. Each returns a pair of length n.
var certWindows = []struct {
	name string
	gen  func(rng *rand.Rand, n, band int) (a, b []byte)
}{
	// Up to cap+1 scattered substitutions: the largest budgets.
	{"scattered", func(rng *rand.Rand, n, band int) ([]byte, []byte) {
		a := randSeqFrom(rng, bpAlphabets[0], n)
		return a, substitute(rng, bpAlphabets[0], a, rng.Perm(n)[:rng.Intn(n/8+2)])
	}},
	// A homopolymer with a few marker bases, the markers of b shifted by
	// 0..2: every shifted diagonal matches for long runs, and a shift of
	// the markers is an indel the ungapped alignment pays twice per marker.
	{"homopolymer", func(rng *rand.Rand, n, band int) ([]byte, []byte) {
		a, b := bytes.Repeat([]byte("A"), n), bytes.Repeat([]byte("A"), n)
		shift := rng.Intn(3)
		for i := rng.Intn(5); i > 0; i-- {
			p := rng.Intn(n - shift)
			a[p], b[p+shift] = 'C', 'C'
		}
		return a, substitute(rng, bpAlphabets[0], b, rng.Perm(n)[:rng.Intn(3)])
	}},
	// A tandem repeat of a 1..6-base unit, b rotated by 0..3 bases and
	// substituted: whole-unit shifts match end to end.
	{"tandem", func(rng *rand.Rand, n, band int) ([]byte, []byte) {
		unit := randSeqFrom(rng, bpAlphabets[0], 1+rng.Intn(6))
		a := bytes.Repeat(unit, n/len(unit)+4)
		r := rng.Intn(4)
		b := substitute(rng, bpAlphabets[0], a[r:r+n], rng.Perm(n)[:rng.Intn(4)])
		return a[:n], b
	}},
	// One run of 3..6 adjacent substitutions (a gap pair around it is the
	// cheapest competitor), sometimes a second run.
	{"adjacent", func(rng *rand.Rand, n, band int) ([]byte, []byte) {
		a := randSeqFrom(rng, bpAlphabets[0], n)
		var pos []int
		for runs := 1 + rng.Intn(2); runs > 0; runs-- {
			c := 3 + rng.Intn(4)
			p := rng.Intn(n - c + 1)
			for i := 0; i < c; i++ {
				pos = append(pos, p+i)
			}
		}
		return a, substitute(rng, bpAlphabets[0], a, pos)
	}},
	// Substitutions only in the first and last band+1 columns, where the
	// band and the matrix edge clip the wavefront.
	{"edges", func(rng *rand.Rand, n, band int) ([]byte, []byte) {
		a := randSeqFrom(rng, bpAlphabets[0], n)
		var pos []int
		for i := rng.Intn(6); i > 0; i-- {
			p := rng.Intn(min(band+1, n))
			if rng.Intn(2) == 0 {
				p = n - 1 - p
			}
			pos = append(pos, p)
		}
		return a, substitute(rng, bpAlphabets[0], a, pos)
	}},
	// A true indel: d = 1..3 bases deleted from b, and d inserted a short
	// stretch later so the window stays equal-length. The ungapped
	// alignment pays for the shifted stretch, the gapped one for 2d gaps.
	{"indel", func(rng *rand.Rand, n, band int) ([]byte, []byte) {
		a := randSeqFrom(rng, bpAlphabets[0], n)
		d, l := 1+rng.Intn(3), 4+rng.Intn(max(n/8, 1))
		p := rng.Intn(n - d - l)
		b := append([]byte(nil), a[:p]...)
		b = append(b, a[p+d:p+d+l]...)
		b = append(b, randSeqFrom(rng, bpAlphabets[0], d)...)
		return a, append(b, a[p+d+l:]...)
	}},
}

// TestCertificateOracle: on every certWindows generator, every scoring
// (rule off included), bands 0 / 1 / 6 / 16 (both kernels behind the
// certificate) and windows of 20..120, BandedNW and the overlap verdict are
// the scalar DP's bit for bit, and the certificate answers exactly the
// windows whose ungapped alignment is a banded optimum (checkRoute) — so it
// follows shifted diagonals through repeats, and declines true indels.
func TestCertificateOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, w := range certWindows {
		t.Run(w.name, func(t *testing.T) {
			var routes [4]int
			for _, sc := range verdictScorings {
				for _, band := range []int{0, 1, 6, 16} {
					for _, n := range []int{20, 33, 64, 90, 120} {
						for trial := 0; trial < 6; trial++ {
							a, b := w.gen(rng, n+rng.Intn(8), band)
							routes[checkRoute(t, a, b, band, sc)]++
							routes[checkRoute(t, b, a, band, sc)]++
						}
					}
				}
			}
			t.Logf("kernel unattempted %d, declined %d, certified free %d, certified by search %d",
				routes[routeKernel], routes[routeDeclined], routes[routeFree], routes[routeSearched])
			if routes[routeSearched] == 0 {
				t.Fatal("the search never certified a window of this generator")
			}
			if w.name == "indel" && routes[routeDeclined] == 0 {
				t.Fatal("no indel window made the certificate decline")
			}
		})
	}
}

// TestCertificateTie: a window whose best gapped alignment scores exactly
// the ungapped score. The middle five bases ACGTA / GTACG mismatch at every
// position ungapped (5 mismatches: -10 against five matches), and align as
// two gaps, GTA matched, two gaps (3 - 8 against five matches: also -10).
// The diagonal wins ties, so the DP reports the ungapped alignment, and the
// certificate must answer rather than decline.
func TestCertificateTie(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ties := 0
	for trial := 0; trial < 20; trial++ {
		left, right := randSeqFrom(rng, bpAlphabets[0], 20+rng.Intn(40)), randSeqFrom(rng, bpAlphabets[0], 20+rng.Intn(40))
		a := append(append(append([]byte(nil), left...), "ACGTA"...), right...)
		b := append(append(append([]byte(nil), left...), "GTACG"...), right...)
		n := len(a)
		for _, band := range []int{2, 6, 16} {
			var ref Scratch
			if got := ref.scalarNW(a, b, band, DefaultScoring); got != (Alignment{Score: n - 10, Matches: n - 5, Columns: n}) {
				continue // the random flanks opened a strictly better path
			}
			ties++
			if r := checkRoute(t, a, b, band, DefaultScoring); r != routeSearched {
				t.Fatalf("tie at band %d took route %d", band, r)
			}
		}
	}
	if ties < 30 {
		t.Fatalf("only %d of 60 constructed windows tied", ties)
	}
}

// routeMix tallies verdicts by the route that answered them.
type routeMix struct {
	verdicts, accepted                    int
	infeasible, bounded, ungapped, kernel int
	kernelRejected                        int
	searched, declined, unattempted       int // same-genome windows of more than free mismatches
}

func (r routeMix) String() string {
	return fmt.Sprintf("%d verdicts (%d accepted): %d infeasible, %d rejected by the identity bound, %d ungapped, %d DP (%d of them rejected)",
		r.verdicts, r.accepted, r.infeasible, r.bounded, r.ungapped, r.kernel, r.kernelRejected)
}

// TestOverlapVerdictsMostlyDPFree: on a simulated D2-analogue read set,
// over two candidate sets — the pairs a seed could support (same genome and
// strand, at least 20 shared bases, true diagonal) and homologous pairs
// (same phylum, another genome, same strand and coordinates: a phylum's
// genomes derive from one ancestor by substitution only, so the coordinates
// line up, and outside conserved loci they sit 20 % apart) — the four
// counters partition the verdicts; on the first set at least 60 % of the
// verdicts need no kernel and the certificate's search answers at least
// 55 % of the windows the bare "a gap pair cannot undercut m mismatches"
// rule would leave to a kernel; over both, at least 80 % of the windows
// that get past the O(1) reject and the certificate and end rejected are
// rejected by the identity bound rather than by a kernel. So no shortcut
// can silently stop firing. The mix is logged per route (go test -v); the
// overlap stage's own candidates on the benchmark's D2 input are split in
// EXPERIMENTS.md.
func TestOverlapVerdictsMostlyDPFree(t *testing.T) {
	spec, err := simulate.PaperDataSet(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	phylum := map[string]string{}
	for _, g := range com.Genomes {
		phylum[g.ID] = g.Phylum
	}
	rcfg := simulate.PaperReadConfig(2, 8)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	var scr, ref Scratch
	cfg := DefaultConfig()
	free, _ := certLims(100, cfg.Scoring)
	var same, homologous routeMix
	for i, oi := range rs.Origins {
		for j, oj := range rs.Origins {
			d := oj.Pos - oi.Pos
			if i == j || phylum[oi.GenomeID] != phylum[oj.GenomeID] || oi.Reverse != oj.Reverse || d > 80 || d < -80 {
				continue
			}
			mix := &homologous
			if oi.GenomeID == oj.GenomeID {
				mix = &same
			}
			if oi.Reverse {
				d = -d
			}
			a, b := rs.Reads[i].Seq, rs.Reads[j].Seq
			before := scr
			want, wantOK := ref.dpOverlapOnDiagonal(a, b, d, cfg)
			got, ok := scr.OverlapOnDiagonal(a, b, d, cfg)
			if ok != wantOK || got != want {
				t.Fatalf("reads %d,%d diag %d: got %+v %v, want %+v %v", i, j, d, got, ok, want, wantOK)
			}
			mix.verdicts++
			switch {
			case ok:
				mix.accepted++
			case scr.dpCalls > before.dpCalls:
				mix.kernelRejected++
			}
			mix.infeasible += scr.fastInfeasible - before.fastInfeasible
			mix.bounded += scr.fastRejected - before.fastRejected
			mix.ungapped += scr.fastUngapped - before.fastUngapped
			mix.kernel += scr.dpCalls - before.dpCalls
			wa, wb := overlapWindow(a, b, d)
			if m := hamming(wa, wb); mix == &same && m > free && scr.fastInfeasible == before.fastInfeasible && scr.fastRejected == before.fastRejected {
				_, lim := certLims(len(wa), cfg.Scoring)
				switch {
				case scr.fastUngapped > before.fastUngapped:
					same.searched++
				case m <= lim:
					same.declined++
				default:
					same.unattempted++
				}
			}
		}
	}
	verdicts := same.verdicts + homologous.verdicts
	if got := scr.fastInfeasible + scr.fastRejected + scr.fastUngapped + scr.dpCalls; got != verdicts {
		t.Fatalf("counters do not partition the verdicts: %d infeasible + %d bound + %d ungapped + %d DP != %d",
			scr.fastInfeasible, scr.fastRejected, scr.fastUngapped, scr.dpCalls, verdicts)
	}
	beyond := same.searched + same.declined + same.unattempted
	t.Logf("same genome: %v", same)
	t.Logf("same genome: %d windows of more than %d mismatches: %d certified by the search, %d declined then DP, %d past the cap straight to DP",
		beyond, free, same.searched, same.declined, same.unattempted)
	t.Logf("homologous: %v", homologous)
	if same.verdicts < 1000 || same.accepted == 0 || beyond == 0 || homologous.verdicts < 1000 {
		t.Fatalf("read set yields too few candidates to judge: %v; %d beyond the free limit; homologous %v", same, beyond, homologous)
	}
	if fast := same.verdicts - same.kernel; 10*fast < 6*same.verdicts {
		t.Fatalf("only %d of %d same-genome verdicts were DP-free, want at least 60%%", fast, same.verdicts)
	}
	if 100*same.searched < 55*beyond {
		t.Fatalf("the search certified only %d of %d windows beyond the free limit, want at least 55%%", same.searched, beyond)
	}
	bounded, kernelRejected := same.bounded+homologous.bounded, same.kernelRejected+homologous.kernelRejected
	t.Logf("rejected past the O(1) rule and the certificate: %d by the identity bound, %d by a kernel", bounded, kernelRejected)
	if 100*bounded < 80*(bounded+kernelRejected) {
		t.Fatalf("the identity bound rejected only %d of %d windows a kernel would reject, want at least 80%%", bounded, bounded+kernelRejected)
	}
}

// FuzzOverlapVerdict holds OverlapOnDiagonal to the DP-only oracle on
// fuzzer-chosen reads, diagonals, bands, thresholds and scorings.
func FuzzOverlapVerdict(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGTACGT"), 0, 6, 10, 90, 1, -1, -2)
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACCTACGTACGAACGT"), 0, 6, 10, 90, 1, -1, -2) // 2 mismatches: certified without a search
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACCTACCTACGTACGAACGT"), 0, 6, 10, 80, 1, -1, -2) // 3 mismatches: searched
	f.Add([]byte("ACGTNACGT#ACGTACGTAC"), []byte("GTNACGT#ACGTACGTACGG"), 2, 3, 18, 95, 1, -5, -2)
	f.Add([]byte("AAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAA"), 0, 0, 16, 100, 1, -1, -2) // widened band
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTACGTAC"), 7, 16, 4, 50, 0, -1, -1)             // rule off, short window
	f.Add([]byte("ACGTACGTAC"), []byte("TACGTACGTA"), -1, 2, 9, 100, 1, -1, 1)
	f.Fuzz(func(t *testing.T, a, b []byte, diag, band, minLen, minIDPct, match, mismatch, gap int) {
		if len(a) > 300 || len(b) > 300 || band < 0 || band > 16 {
			return
		}
		for _, v := range []int{match, mismatch, gap} {
			if v < -16 || v > 16 {
				return
			}
		}
		if diag < -len(b) || diag > len(a) || minLen < -1 || minLen > 700 || minIDPct < -1 || minIDPct > 101 {
			return
		}
		cfg := Config{
			MinLength:   minLen,
			MinIdentity: float64(minIDPct) / 100,
			Band:        band,
			Scoring:     Scoring{Match: match, Mismatch: mismatch, Gap: gap},
		}
		var scr, ref Scratch
		checkVerdict(t, &scr, &ref, a, b, diag, cfg)
	})
}
