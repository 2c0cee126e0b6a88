package align

import (
	"math/rand"
	"testing"

	"focus/internal/simulate"
)

// dpOverlapOnDiagonal is the DP-only oracle of the verdict suites:
// OverlapOnDiagonal's window, thresholds and classification around
// bandedNWScalar, with neither the infeasible-window reject nor the
// ungapped-optimum accept.
func (scr *Scratch) dpOverlapOnDiagonal(a, b []byte, diag int, cfg Config) (Overlap, bool) {
	aLo, bLo := max(diag, 0), max(-diag, 0)
	aHi := min(len(a), diag+len(b))
	bHi := aHi - diag
	if aHi <= aLo || bHi <= bLo {
		return Overlap{}, false
	}
	aln := scr.scalarNW(a[aLo:aHi], b[bLo:bHi], cfg.Band, cfg.Scoring)
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

// verdictScorings spans the ungapped rule's regimes: lim 2 (default), 0, 1
// and 8, and the sign conditions under which the rule must switch itself
// off (Match <= 0, Gap >= 0, Mismatch >= Match).
var verdictScorings = []Scoring{
	{1, -1, -2}, // lim 2
	{1, -5, -2}, // lim 0: only exact windows skip the DP
	{5, -1, -1}, // lim 1
	{2, -1, -3}, // lim 2, delta 3
	{1, -1, -8}, // lim 8
	{0, -1, -1}, // off: Match == 0
	{-1, -2, -1},
	{1, -1, 0}, // off: free gaps tie with the ungapped path
	{1, -1, 1}, // off: rewarded gaps
	{1, 1, -2}, // off: Mismatch == Match
	{1, 2, -2}, // off: Mismatch > Match
}

// ungappedLim is the rule's mismatch limit computed the long way: the
// largest m whose ungapped score still strictly beats the best conceivable
// gapped one; -1 when the rule does not apply.
func ungappedLim(sc Scoring) int {
	if sc.Match <= 0 || sc.Gap >= 0 || sc.Mismatch >= sc.Match {
		return -1
	}
	m := 0
	for 100*sc.Match-(m+1)*(sc.Match-sc.Mismatch) > 99*sc.Match+2*sc.Gap {
		m++
	}
	return m
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
// 0..lim+1 substitutions and an optional indel inside the window.
func TestOverlapVerdictThresholdWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var scr, ref Scratch
	alpha := bpAlphabets[1]
	for _, sc := range verdictScorings {
		for _, minLen := range []int{4, 20, 50} {
			for _, minID := range []float64{0, 0.8, 0.9, 0.97, 1} {
				for d := -3; d <= 3; d++ {
					n := minLen + d // window length
					for subs := 0; subs <= ungappedLim(sc)+2 && subs <= n; subs++ {
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

// TestOverlapVerdictAtMismatchLimit places exactly lim and lim+1
// mismatches in equal-length windows — scattered, packed into one 8-byte
// word, and in the sub-word tail — and checks both the answer and which
// path gave it: lim mismatches must skip the DP, lim+1 must run it.
func TestOverlapVerdictAtMismatchLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alpha := bpAlphabets[2]
	for _, sc := range verdictScorings {
		lim := ungappedLim(sc)
		for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 100} {
			for m := max(lim, 0); m <= lim+1; m++ {
				if m > n {
					continue
				}
				layouts := [][]int{rng.Perm(n)[:m]}
				packed := make([]int, m)
				for i := range packed {
					packed[i] = i // first word (and beyond, for lim 8)
				}
				tail := make([]int, m)
				for i := range tail {
					tail[i] = n - 1 - i // last bytes: the sub-word tail when n%8 != 0
				}
				layouts = append(layouts, packed, tail)
				for _, pos := range layouts {
					a := randSeqFrom(rng, alpha, n)
					b := substitute(rng, alpha, a, pos)
					var scr, ref Scratch
					cfg := Config{Band: rng.Intn(17), Scoring: sc} // thresholds 0: every window feasible
					checkVerdict(t, &scr, &ref, a, b, 0, cfg)
					wantFast := 0
					if m <= lim {
						wantFast = 1
					}
					if scr.fastUngapped != wantFast || scr.dpCalls != 1-wantFast || scr.fastInfeasible != 0 {
						t.Fatalf("sc=%+v lim=%d n=%d m=%d at %v: ungapped=%d dp=%d infeasible=%d",
							sc, lim, n, m, pos, scr.fastUngapped, scr.dpCalls, scr.fastInfeasible)
					}
				}
			}
		}
	}
}

// TestOverlapVerdictsMostlyDPFree: on a simulated read set, with the
// candidates a seed could support (same genome and strand, at least 20
// shared bases, true diagonal), at least 60 % of the verdicts come from
// the two rules — so the shortcut cannot silently stop firing. The
// overlap stage's own candidates on the D2 analogue split 26 % infeasible,
// 45 % ungapped, 28 % DP.
func TestOverlapVerdictsMostlyDPFree(t *testing.T) {
	spec, err := simulate.PaperDataSet(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(2, 8)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	var scr, ref Scratch
	cfg := DefaultConfig()
	accepted := 0
	for i, oi := range rs.Origins {
		for j, oj := range rs.Origins {
			d := oj.Pos - oi.Pos
			if i == j || oi.GenomeID != oj.GenomeID || oi.Reverse != oj.Reverse || d > 80 || d < -80 {
				continue
			}
			if oi.Reverse {
				d = -d
			}
			want, wantOK := ref.dpOverlapOnDiagonal(rs.Reads[i].Seq, rs.Reads[j].Seq, d, cfg)
			got, ok := scr.OverlapOnDiagonal(rs.Reads[i].Seq, rs.Reads[j].Seq, d, cfg)
			if ok != wantOK || got != want {
				t.Fatalf("reads %d,%d diag %d: got %+v %v, want %+v %v", i, j, d, got, ok, want, wantOK)
			}
			if ok {
				accepted++
			}
		}
	}
	fast, total := scr.fastUngapped+scr.fastInfeasible, scr.fastUngapped+scr.fastInfeasible+scr.dpCalls
	t.Logf("%d verdicts (%d accepted): %d infeasible, %d ungapped, %d DP", total, accepted, scr.fastInfeasible, scr.fastUngapped, scr.dpCalls)
	if total < 1000 || accepted == 0 {
		t.Fatalf("read set yields too few candidates to judge: %d verdicts, %d accepted", total, accepted)
	}
	if 10*fast < 6*total {
		t.Fatalf("only %d of %d verdicts were DP-free, want at least 60%%", fast, total)
	}
}

// FuzzOverlapVerdict holds OverlapOnDiagonal to the DP-only oracle on
// fuzzer-chosen reads, diagonals, bands, thresholds and scorings.
func FuzzOverlapVerdict(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGTACGT"), 0, 6, 10, 90, 1, -1, -2)
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACCTACGTACGAACGT"), 0, 6, 10, 90, 1, -1, -2) // m = lim
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACCTACCTACGTACGAACGT"), 0, 6, 10, 80, 1, -1, -2) // m = lim+1
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
