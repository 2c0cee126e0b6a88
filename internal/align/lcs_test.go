package align

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// bandLCSScalar is the identity bound's oracle: the most matches an in-band
// path from (0, 0) to (n, n) collects over the equal-length a and b, cell by
// cell in bandedNWScalar's band-local layout (c = j - i + band), O(n·band).
func bandLCSScalar(a, b []byte, band int) int {
	n, w := len(a), 2*band+1
	const unreachable = -1
	prev, cur := make([]int, w), make([]int, w)
	for c := range prev {
		if j := c - band; j < 0 || j > n {
			prev[c] = unreachable
		}
	}
	for i := 1; i <= n; i++ {
		for c := range cur {
			best := unreachable
			if j := i - band + c; j >= 0 && j <= n {
				if c+1 < w {
					best = prev[c+1] // up (i-1, j)
				}
				if c > 0 {
					best = max(best, cur[c-1]) // left (i, j-1)
				}
				if j > 0 && prev[c] != unreachable { // diagonal (i-1, j-1)
					d := prev[c]
					if a[i-1] == b[j-1] {
						d++
					}
					best = max(best, d)
				}
			}
			cur[c] = best
		}
		prev, cur = cur, prev
	}
	return prev[band]
}

// lcsBands covers both word edges of the bound (31 is the widest band it
// takes, 32 must decline) and the bands the verdict suites use.
var lcsBands = []int{0, 1, 6, 16, 31, 32}

// lcsPair draws an equal-length pair of n bytes over alpha: b unrelated to
// a, or a with substitutions, insertions and deletions at one of several
// rates, trimmed or padded back to n.
func lcsPair(rng *rand.Rand, alpha []byte, n int) (a, b []byte) {
	a = randSeqFrom(rng, alpha, n)
	if rng.Intn(4) == 0 {
		return a, randSeqFrom(rng, alpha, n)
	}
	b = mutate(rng, alpha, a, []float64{0.03, 0.15, 0.3, 0.6}[rng.Intn(4)])
	return a, append(b, randSeqFrom(rng, alpha, n)...)[:n]
}

// checkBandLCS holds bandLCSBelow to the oracle at the given thresholds:
// true exactly when L < need, and never above lcsMaxBand.
func checkBandLCS(t *testing.T, scr *Scratch, a, b []byte, band int, needs []int) {
	t.Helper()
	l := bandLCSScalar(a, b, band)
	for _, need := range needs {
		want := band <= lcsMaxBand && l < need
		if got := scr.bandLCSBelow(a, b, band, need); got != want {
			t.Fatalf("n=%d band=%d L=%d need=%d: bandLCSBelow %v, want %v\n a=%q\n b=%q", len(a), band, l, need, got, want, a, b)
		}
	}
}

// TestBandLCSOracle: on windows of 1..70 bases and around the 64-bit word
// edges of the Eq masks (63/64/65, 127..129, 255..257) up to 300, every
// band of lcsBands, related and unrelated pairs, and one Scratch reused
// throughout (the Eq arena grows, and each call clears the words it set),
// bandLCSBelow answers every threshold from 0 to n+1 as the scalar
// DP's L does — which pins L itself. Besides the three base alphabets,
// "ABCD" puts a neighbouring byte's Eq row right after each row's last
// word, so the tail rows' unaligned reads pick up foreign bits.
func TestBandLCSOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var lengths []int
	for n := 1; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 100, 127, 128, 129, 200, 255, 256, 257, 300)
	var scr Scratch
	for _, n := range lengths {
		needs := make([]int, n+2)
		for i := range needs {
			needs[i] = i
		}
		for _, band := range lcsBands {
			for _, alpha := range append(alphabets, []byte("ABCD")) {
				for trial := 0; trial < 3; trial++ {
					a, b := lcsPair(rng, alpha, n)
					checkBandLCS(t, &scr, a, b, band, needs)
				}
			}
		}
	}
}

// TestMinMatches: the threshold is exact against the verdict's float test
// — L-1 matches over n columns fail it, L pass — for every window length
// to 300, the paper's and other thresholds, thresholds that are exactly
// k/n, and the degenerate MinIdentity <= 0, > 1 and NaN.
func TestMinMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for n := 1; n <= 300; n++ {
		ids := []float64{0.9, 0.95, 0.5, 1, 0, -0.1, 1.01, math.NaN(), math.Inf(1), math.Inf(-1), rng.Float64()}
		for k := 0; k < 4; k++ {
			ids = append(ids, float64(rng.Intn(n+1))/float64(n))
		}
		for _, id := range ids {
			l := minMatches(n, id)
			fails := func(m int) bool { return float64(m)/float64(n) < id }
			if l < 0 || l > n+1 || l > 0 && !fails(l-1) || l <= n && fails(l) {
				t.Fatalf("n=%d minID=%v: minMatches %d", n, id, l)
			}
		}
	}
}

// divergentWindow draws homologous equal-length windows: b is a at 8..25 %
// substitutions (the divergence of two genera of one phylum) with up to
// two indels, so some windows the bound rejects outright, some it must
// leave to the kernel, and some the kernel accepts.
func divergentWindow(rng *rand.Rand, alpha []byte, n int) (a, b []byte) {
	a = randSeqFrom(rng, alpha, n)
	b = substitute(rng, alpha, a, rng.Perm(n)[:n*(8+rng.Intn(18))/100])
	for i := rng.Intn(3); i > 0; i-- {
		p := rng.Intn(len(b))
		if rng.Intn(2) == 0 {
			b = append(b[:p], b[p+1:]...)
		} else {
			b = append(b[:p], append([]byte{alpha[rng.Intn(len(alpha))]}, b[p:]...)...)
		}
	}
	return a, append(b, randSeqFrom(rng, alpha, n)...)[:n]
}

// checkBoundRoute is checkVerdict plus the bound's route: it must reject
// exactly the feasible windows whose ungapped alignment misses MinIdentity
// and whose scalar banded LCS is below minMatches, at bands it takes (a
// band is clamped to the window first).
func checkBoundRoute(t *testing.T, scr, ref *Scratch, a, b []byte, diag int, cfg Config) {
	t.Helper()
	before := scr.fastRejected
	checkVerdict(t, scr, ref, a, b, diag, cfg)
	want := false
	if wa, wb := overlapWindow(a, b, diag); wa != nil {
		n := len(wa)
		band := min(max(cfg.Band, 0), n) // a band past the window is the whole matrix
		g := max(cfg.MinLength-n, 0)
		want = !(float64(n-g)/float64(n+g) < cfg.MinIdentity) &&
			float64(n-hamming(wa, wb))/float64(n) < cfg.MinIdentity &&
			band <= lcsMaxBand && bandLCSScalar(wa, wb, band) < minMatches(n, cfg.MinIdentity)
	}
	if got := scr.fastRejected > before; got != want {
		t.Fatalf("bound route (diag=%d cfg=%+v): rejected %v, want %v\n a=%q\n b=%q", diag, cfg, got, want, a, b)
	}
}

// TestIdentityBoundVerdicts: on divergent homologous windows, alone and
// inside longer reads, for every verdictScorings entry (the bound holds
// whatever the scoring, the rule-off ones included), every band of
// lcsBands and a threshold sweep, the verdict is the DP-only oracle's and
// the bound takes exactly the route checkBoundRoute names — and it does
// fire, and does leave windows to the kernel, under every scoring.
func TestIdentityBoundVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sc := range verdictScorings {
		var scr, ref Scratch
		for trial := 0; trial < 300; trial++ {
			alpha := alphabets[rng.Intn(len(alphabets))]
			cfg := Config{
				MinLength:   []int{0, 20, 50}[rng.Intn(3)],
				MinIdentity: []float64{0.5, 0.8, 0.9, 0.95, 1}[rng.Intn(5)],
				Band:        lcsBands[rng.Intn(len(lcsBands))],
				Scoring:     sc,
			}
			a, b := divergentWindow(rng, alpha, 30+rng.Intn(150))
			checkBoundRoute(t, &scr, &ref, a, b, 0, cfg)
			a2 := append(randSeqFrom(rng, alpha, 9), a...)
			b2 := append(append([]byte(nil), b...), randSeqFrom(rng, alpha, 5)...)
			checkBoundRoute(t, &scr, &ref, a2, b2, 9, cfg)
			checkBoundRoute(t, &scr, &ref, b2, a2, -9, cfg)
		}
		if scr.fastRejected == 0 || scr.dpCalls == 0 {
			t.Fatalf("scoring %+v: bound rejected %d, kernel ran %d", sc, scr.fastRejected, scr.dpCalls)
		}
	}
}

// FuzzBandLCS holds bandLCSBelow to the scalar DP on fuzzer-chosen bytes
// (the shorter input's length sets the window), bands on both sides of
// lcsMaxBand and thresholds around 0..n+1.
func FuzzBandLCS(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTTCGTAC"), 2, 9)
	f.Add([]byte("AAAA#NNNNACGTACGT"), []byte("AAAANNNN#ACGTACGT"), 6, 15)
	f.Add(bytes.Repeat([]byte("ACGT"), 20), bytes.Repeat([]byte("CGTA"), 20), 31, 79)
	f.Add(bytes.Repeat([]byte("ACGT"), 20), bytes.Repeat([]byte("CGTA"), 20), 32, 81)
	f.Add([]byte("GATTACA"), []byte("TACAGAT"), 0, 0)
	f.Fuzz(func(t *testing.T, a, b []byte, band, need int) {
		n := min(len(a), len(b))
		if n == 0 || n > 400 || band < 0 || band > 40 || need < -1 || need > n+2 {
			return
		}
		var scr Scratch
		checkBandLCS(t, &scr, a[:n], b[:n], band, []int{need})
	})
}
