package align

import (
	"math/rand"
	"testing"
)

// strand maps each byte of the overlap stage's alphabet to its complement
// (the dna package's table, kept local: align does not import dna).
var strand = [256]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A', 'N': 'N'}

// revComp returns the reverse complement of an A/C/G/T/N sequence.
func revComp(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = strand[c]
	}
	return out
}

// mirrorKind is a Kind seen from the other strand: B precedes A there
// exactly when A preceded B here; containment is strand-free.
func mirrorKind(k Kind) Kind {
	switch k {
	case KindSuffixPrefix:
		return KindPrefixSuffix
	case KindPrefixSuffix:
		return KindSuffixPrefix
	}
	return k
}

// checkMirror runs the verdict on (a, b, diag) and, when StrandSymmetric
// vouches for it, on the pair read from the other strand, which must give
// the mirrored verdict by a DP-free route too. It reports whether the
// forward verdict was DP-free.
func checkMirror(t *testing.T, scr *Scratch, a, b []byte, diag int, cfg Config) bool {
	t.Helper()
	got, ok := scr.OverlapOnDiagonal(a, b, diag, cfg)
	if !scr.StrandSymmetric() {
		return false
	}
	md := len(a) - len(b) - diag
	mir, mok := scr.OverlapOnDiagonal(revComp(a), revComp(b), md, cfg)
	want := Overlap{}
	if ok {
		want = Overlap{Kind: mirrorKind(got.Kind), Length: got.Length, Identity: got.Identity, Diag: md, Score: got.Score}
	}
	if mok != ok || mir != want || !scr.StrandSymmetric() {
		t.Fatalf("DP-free verdict not strand-symmetric (diag=%d cfg=%+v):\n forward %+v %v\n  mirror %+v %v (DP-free %v), want %+v\n a=%q\n b=%q",
			diag, cfg, got, ok, mir, mok, scr.StrandSymmetric(), want, a, b)
	}
	return true
}

// TestStrandMirrorRoutes: on random windows from identical to far apart,
// with and without N, every DP-free verdict — and each of the three
// DP-free routes answers some — is the mirror of the verdict on the other
// strand.
func TestStrandMirrorRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var scr Scratch
	free := 0
	for trial := 0; trial < 4000; trial++ {
		alpha := alphabets[rng.Intn(2)]
		a := randSeqFrom(rng, alpha, 40+rng.Intn(80))
		b := mutate(rng, alpha, a[rng.Intn(len(a)/2):], []float64{0, 0.02, 0.06, 0.3}[rng.Intn(4)])
		cfg := DefaultConfig()
		cfg.MinLength = []int{20, 50, 80}[rng.Intn(3)]
		diag := len(a) - len(b) - rng.Intn(3)
		if rng.Intn(2) == 0 {
			diag = rng.Intn(len(a)) - len(b)/2
		}
		if checkMirror(t, &scr, a, b, diag, cfg) {
			free++
		}
	}
	if scr.fastInfeasible == 0 || scr.fastRejected == 0 || scr.fastUngapped == 0 || scr.dpCalls == 0 {
		t.Fatalf("suite missed a route: infeasible=%d bound=%d ungapped=%d dp=%d",
			scr.fastInfeasible, scr.fastRejected, scr.fastUngapped, scr.dpCalls)
	}
	t.Logf("%d of 4000 verdicts DP-free, each mirrored", free)
}

// TestStrandMirrorDPCounterexample pins why a kernel's verdict is never
// mirrored: the window below, on diagonal 0, is rejected on this strand
// (the traceback's ties toward the diagonal and then up land on an
// alignment below 90 % identity) and accepted on the other, where the same
// preferences pick 61 columns at 0.9016.
func TestStrandMirrorDPCounterexample(t *testing.T) {
	a := []byte("ATGCTAGGTCGCAGGTGCATCACGTATAATGGGAGCTATGTCCAGATCCTCGCGTATTAC")
	b := []byte("ATGCTAGGTCGCAGGTGCATACGTATAATGGGAGCTATGTCCAGATCCTGCTATTACA")
	cfg := DefaultConfig()
	var scr Scratch
	if _, ok := scr.OverlapOnDiagonal(a, b, 0, cfg); ok || scr.StrandSymmetric() {
		t.Fatalf("forward: accepted %v, DP-free %v; want a kernel's rejection", ok, scr.StrandSymmetric())
	}
	mir, ok := scr.OverlapOnDiagonal(revComp(a), revComp(b), len(a)-len(b), cfg)
	if !ok || scr.StrandSymmetric() || mir.Length != 61 || mir.Kind != KindAContainsB {
		t.Fatalf("mirror: %+v accepted %v, DP-free %v; want a kernel's 61-column containment", mir, ok, scr.StrandSymmetric())
	}
}

// FuzzStrandMirror holds every DP-free verdict to its strand mirror on
// fuzzer-chosen reads (bytes folded onto A/C/G/T/N), diagonals, bands,
// thresholds and scorings.
func FuzzStrandMirror(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACGTACGTACGTACGTACGT"), 0, 6, 10, 90, 1, -1, -2)
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("ACCTACCTACGTACGAACGT"), 3, 6, 10, 80, 1, -1, -2)  // certificate search
	f.Add([]byte("ACGTACGTACGTACGTACGT"), []byte("TTTTGGGGCCCCAAAATTTT"), -2, 6, 10, 90, 1, -1, -2) // identity bound
	f.Add([]byte("ACGTNACGTACGTACGTAC"), []byte("GTNACGTACGTACGTACGG"), 2, 3, 18, 95, 1, -5, -2)
	f.Add([]byte("ACGTACGTAC"), []byte("ACGTACGTAC"), 7, 16, 4, 50, 0, -1, -1) // rule off, short window
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
		fold := func(s []byte) []byte {
			out := make([]byte, len(s))
			for i, c := range s {
				out[i] = "ACGTN"[c%5]
			}
			return out
		}
		cfg := Config{
			MinLength:   minLen,
			MinIdentity: float64(minIDPct) / 100,
			Band:        band,
			Scoring:     Scoring{Match: match, Mismatch: mismatch, Gap: gap},
		}
		var scr Scratch
		checkMirror(t, &scr, fold(a), fold(b), diag, cfg)
	})
}
