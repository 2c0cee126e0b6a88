package align

import (
	"math/rand"
	"testing"
)

func TestNWIdentical(t *testing.T) {
	a := []byte("ACGTACGT")
	aln := NW(a, a, DefaultScoring)
	if aln.Score != 8 || aln.Matches != 8 || aln.Columns != 8 {
		t.Errorf("aln = %+v", aln)
	}
	if aln.Identity() != 1.0 {
		t.Errorf("identity = %v", aln.Identity())
	}
}

func TestNWSingleMismatch(t *testing.T) {
	aln := NW([]byte("ACGT"), []byte("AGGT"), DefaultScoring)
	if aln.Matches != 3 || aln.Columns != 4 {
		t.Errorf("aln = %+v", aln)
	}
	if aln.Score != 3*1-1 {
		t.Errorf("score = %d", aln.Score)
	}
}

func TestNWSingleInsertion(t *testing.T) {
	aln := NW([]byte("ACGT"), []byte("ACGGT"), DefaultScoring)
	if aln.Matches != 4 || aln.Columns != 5 {
		t.Errorf("aln = %+v", aln)
	}
	if aln.Score != 4*1-2 {
		t.Errorf("score = %d", aln.Score)
	}
}

func TestNWEmpty(t *testing.T) {
	aln := NW(nil, []byte("ACG"), DefaultScoring)
	if aln.Score != -6 || aln.Columns != 3 || aln.Matches != 0 {
		t.Errorf("aln = %+v", aln)
	}
	aln = NW(nil, nil, DefaultScoring)
	if aln.Score != 0 || aln.Columns != 0 {
		t.Errorf("aln = %+v", aln)
	}
}

func TestNWSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 100; trial++ {
		a := randSeq(rng, 1+rng.Intn(40))
		b := randSeq(rng, 1+rng.Intn(40))
		x := NW(a, b, DefaultScoring)
		y := NW(b, a, DefaultScoring)
		if x.Score != y.Score {
			t.Fatalf("score not symmetric: %d vs %d for %q/%q", x.Score, y.Score, a, b)
		}
	}
}

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

// alphabets used by the randomized suites: plain bases, bases with the
// ambiguity byte, and bases with the '#' subset-text separator that the
// 2-bit wire packing escapes (the rules must treat both as ordinary bytes
// that only match themselves).
var alphabets = [][]byte{
	[]byte("ACGT"),
	[]byte("ACGTN"),
	[]byte("ACGTN#"),
}

func randSeqFrom(rng *rand.Rand, alpha []byte, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = alpha[rng.Intn(len(alpha))]
	}
	return s
}

// mutate applies roughly rate substitutions/insertions/deletions to s, so
// pairs look like real overlap windows (mostly matching, few gaps).
func mutate(rng *rand.Rand, alpha, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, ch := range s {
		switch {
		case rng.Float64() < rate/3: // deletion
		case rng.Float64() < rate/3: // insertion
			out = append(out, ch, alpha[rng.Intn(len(alpha))])
		case rng.Float64() < rate/3: // substitution
			out = append(out, alpha[rng.Intn(len(alpha))])
		default:
			out = append(out, ch)
		}
	}
	return out
}

// widenBand establishes BandedNW's band precondition: non-negative and at
// least the length difference.
func widenBand(a, b []byte, band int) int {
	d := len(a) - len(b)
	if d < 0 {
		d = -d
	}
	return max(band, d, 0)
}

// scalarNW is the oracle: bandedNWScalar called directly, with BandedNW's
// preconditions (band widened to the length difference, both inputs
// non-empty) established here so the ungapped-optimum certificate is
// bypassed entirely.
func (scr *Scratch) scalarNW(a, b []byte, band int, sc Scoring) Alignment {
	if len(a) == 0 || len(b) == 0 {
		return Alignment{Score: (len(a) + len(b)) * sc.Gap, Columns: len(a) + len(b)}
	}
	return scr.bandedNWScalar(a, b, widenBand(a, b, band), sc)
}

// A generous band must reproduce the unbanded optimum.
func TestBandedMatchesUnbandedForWideBand(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		a := randSeq(rng, 1+rng.Intn(30))
		b := randSeq(rng, 1+rng.Intn(30))
		wide := BandedNW(a, b, len(a)+len(b), DefaultScoring)
		ref := NW(a, b, DefaultScoring)
		if wide.Score != ref.Score {
			t.Fatalf("wide band score %d != unbanded %d for %q/%q", wide.Score, ref.Score, a, b)
		}
	}
}

// A banded score can never exceed the unbanded optimum, and for similar
// sequences a small band is enough to reach it.
func TestBandedBoundsAndTightBand(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		a := randSeq(rng, 60)
		// b = a with a couple of substitutions: on-diagonal alignment.
		b := append([]byte(nil), a...)
		for k := 0; k < 2; k++ {
			b[rng.Intn(len(b))] = "ACGT"[rng.Intn(4)]
		}
		banded := BandedNW(a, b, 2, DefaultScoring)
		ref := NW(a, b, DefaultScoring)
		if banded.Score > ref.Score {
			t.Fatalf("banded score %d exceeds optimum %d", banded.Score, ref.Score)
		}
		if banded.Score != ref.Score {
			t.Fatalf("band 2 missed the optimum for near-identical seqs: %d vs %d", banded.Score, ref.Score)
		}
	}
}

func TestBandWidensForLengthDifference(t *testing.T) {
	// len difference 10 > band 2: band must widen so the corner is
	// reachable; result must not panic and must be a valid alignment.
	a := randSeq(rand.New(rand.NewSource(33)), 50)
	b := a[:40]
	aln := BandedNW(a, b, 2, DefaultScoring)
	if aln.Columns < 50 {
		t.Errorf("columns = %d, want >= 50", aln.Columns)
	}
	if aln.Matches != 40 {
		t.Errorf("matches = %d, want 40", aln.Matches)
	}
}

func TestIdentityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		a := randSeq(rng, rng.Intn(30))
		b := randSeq(rng, rng.Intn(30))
		aln := BandedNW(a, b, 4, DefaultScoring)
		id := aln.Identity()
		if id < 0 || id > 1 {
			t.Fatalf("identity %v out of range", id)
		}
		if aln.Matches > aln.Columns {
			t.Fatalf("matches %d > columns %d", aln.Matches, aln.Columns)
		}
		minCols := len(a)
		if len(b) > minCols {
			minCols = len(b)
		}
		if aln.Columns < minCols || aln.Columns > len(a)+len(b) {
			t.Fatalf("columns %d outside [%d,%d]", aln.Columns, minCols, len(a)+len(b))
		}
	}
}
