package align

import (
	"math/rand"
	"testing"
)

// alphabets used by the randomized suites: plain bases, bases with the
// ambiguity byte, and bases with the '#' subset-text separator that the
// 2-bit wire packing escapes (the kernel must treat both as ordinary
// bytes that only match themselves).
var bpAlphabets = [][]byte{
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

// checkPair holds both the production entry point (whatever kernel, or
// none, it selects) and the pinned bit-parallel kernel to the scalar DP.
func checkPair(t *testing.T, scr, ref *Scratch, a, b []byte, band int, sc Scoring) {
	t.Helper()
	want := ref.scalarNW(a, b, band, sc)
	if got := scr.BandedNW(a, b, band, sc); got != want {
		t.Fatalf("BandedNW diverged (band=%d scoring=%+v len=%d/%d):\n got %+v\nwant %+v\n a=%q\n b=%q",
			band, sc, len(a), len(b), got, want, a, b)
	}
	if got, ok := scr.bitNW(a, b, band, sc); ok && got != want {
		t.Fatalf("bit-parallel diverged (band=%d scoring=%+v len=%d/%d):\n got %+v\nwant %+v\n a=%q\n b=%q",
			band, sc, len(a), len(b), got, want, a, b)
	}
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
// non-empty) established here so kernel selection is bypassed entirely.
func (scr *Scratch) scalarNW(a, b []byte, band int, sc Scoring) Alignment {
	if len(a) == 0 || len(b) == 0 {
		return Alignment{Score: (len(a) + len(b)) * sc.Gap, Columns: len(a) + len(b)}
	}
	return scr.bandedNWScalar(a, b, widenBand(a, b, band), sc)
}

// bitNW pins the bit-parallel kernel: bandedNWBit called directly under
// the same preconditions, so equal-length near-identical inputs — which
// BandedNW answers without any kernel — still exercise the SWAR path.
// ok is false outside the kernel's envelope or when a range guard trips.
func (scr *Scratch) bitNW(a, b []byte, band int, sc Scoring) (Alignment, bool) {
	band = widenBand(a, b, band)
	if len(a) == 0 || len(b) == 0 || !bpEligible(band, sc) {
		return Alignment{}, false
	}
	return scr.bandedNWBit(a, b, band, sc)
}

// TestBitParallelMatchesScalarRandom: the bit-parallel kernel reproduces
// the scalar Alignment exactly — score, matches, columns — on random
// base/N/'#' sequences across lengths 1..300, the full eligible band
// range, related and unrelated pairs, and both argument orders.
func TestBitParallelMatchesScalarRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scr, ref Scratch
	for trial := 0; trial < 4000; trial++ {
		alpha := bpAlphabets[rng.Intn(len(bpAlphabets))]
		n := 1 + rng.Intn(300)
		a := randSeqFrom(rng, alpha, n)
		var b []byte
		if rng.Intn(2) == 0 {
			b = mutate(rng, alpha, a, []float64{0.02, 0.1, 0.3}[rng.Intn(3)])
			if len(b) == 0 {
				b = randSeqFrom(rng, alpha, 1+rng.Intn(8))
			}
		} else {
			b = randSeqFrom(rng, alpha, 1+rng.Intn(300))
		}
		band := rng.Intn(bpMaxBand + 2) // 0..8: includes one ineligible value
		checkPair(t, &scr, &ref, a, b, band, DefaultScoring)
		checkPair(t, &scr, &ref, b, a, band, DefaultScoring)
	}
}

// TestBitParallelMatchesScalarScorings sweeps the eligible scoring space
// (and near-gate corners) at several bands.
func TestBitParallelMatchesScalarScorings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scr, ref Scratch
	scorings := []Scoring{
		{1, -1, -2}, // default
		{1, -2, -1}, // gap cheaper than mismatch: gap-heavy tracebacks
		{2, -3, -4}, // larger magnitudes
		{0, -1, -1}, // zero match reward
		{1, 0, -1},  // free mismatch
		{2, -8, -3}, // mismatch at the magnitude limit
		{3, -2, -1}, // high match reward
		{8, -8, -8}, // all limits (eligible only at band 0)
		{1, -1, -8}, // gap at the magnitude limit
		{4, -4, -2}, // near the spread gate at small bands
	}
	for _, sc := range scorings {
		for band := 0; band <= bpMaxBand; band++ {
			if !bpEligible(band, sc) {
				continue
			}
			for trial := 0; trial < 120; trial++ {
				alpha := bpAlphabets[trial%len(bpAlphabets)]
				a := randSeqFrom(rng, alpha, 1+rng.Intn(120))
				b := mutate(rng, alpha, a, 0.15)
				if len(b) == 0 {
					b = []byte{alpha[0]}
				}
				checkPair(t, &scr, &ref, a, b, band, sc)
			}
		}
	}
}

// TestBitParallelBandEdges exercises the geometric corner cases: length
// differences exactly at/over the band, single-character inputs, and
// sequences shorter than the band.
func TestBitParallelBandEdges(t *testing.T) {
	var scr, ref Scratch
	rng := rand.New(rand.NewSource(3))
	for band := 0; band <= bpMaxBand; band++ {
		for _, nm := range [][2]int{
			{1, 1}, {1, 2}, {2, 1}, {1, band + 1}, {band + 1, 1},
			{band, band}, {band + 1, band + 1},
			{10, 10 + band}, {10 + band, 10},
			{10, 11 + band}, {11 + band, 10}, // widened band: scalar fallback path
			{64, 64}, {65, 64}, {63, 64 + band}, {127, 128}, {128, 128}, {129, 128},
		} {
			n, m := nm[0], nm[1]
			if n < 1 || m < 1 {
				continue
			}
			for trial := 0; trial < 10; trial++ {
				a := randSeqFrom(rng, bpAlphabets[2], n)
				b := randSeqFrom(rng, bpAlphabets[2], m)
				checkPair(t, &scr, &ref, a, b, band, DefaultScoring)
			}
		}
	}
}

// TestBitParallelOverlapOnDiagonal: OverlapOnDiagonal reports exactly the
// scalar DP's alignment of the overlap window, including accept/reject
// decisions near the thresholds.
func TestBitParallelOverlapOnDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scalar, bitp Scratch
	cfg := DefaultConfig()
	// Loosen thresholds so random unrelated pairs also produce accepted
	// records with interesting kinds.
	for _, minLen := range []int{5, 50} {
		cfg.MinLength = minLen
		for trial := 0; trial < 2000; trial++ {
			alpha := bpAlphabets[rng.Intn(len(bpAlphabets))]
			a := randSeqFrom(rng, alpha, 20+rng.Intn(200))
			b := mutate(rng, alpha, a, []float64{0.02, 0.08, 0.25}[rng.Intn(3)])
			if len(b) == 0 {
				continue
			}
			diag := rng.Intn(len(a)+len(b)) - len(b)
			ov, ok := bitp.OverlapOnDiagonal(a, b, diag, cfg)

			aLo, bLo := diag, 0
			if aLo < 0 {
				aLo, bLo = 0, -diag
			}
			aHi := len(a)
			if end := diag + len(b); end < aHi {
				aHi = end
			}
			bHi := aHi - diag
			if aHi <= aLo || bHi <= bLo {
				if ok {
					t.Fatalf("diag=%d: empty window accepted: %+v", diag, ov)
				}
				continue
			}
			want := scalar.scalarNW(a[aLo:aHi], b[bLo:bHi], cfg.Band, cfg.Scoring)
			wantOK := want.Columns >= cfg.MinLength && want.Identity() >= cfg.MinIdentity
			if ok != wantOK {
				t.Fatalf("diag=%d: accepted=%v, scalar DP says %v (%+v)", diag, ok, wantOK, want)
			}
			if ok && (ov.Length != want.Columns || ov.Score != want.Score || ov.Identity != want.Identity() || ov.Diag != diag) {
				t.Fatalf("diag=%d: overlap %+v diverged from scalar alignment %+v", diag, ov, want)
			}
		}
	}
}

// TestBitParallelNoFallbackOnDefaultScoring: the range guards must never
// trip inside the eligible envelope — a trip would silently halve the
// kernel's speedup on the hot path.
func TestBitParallelNoFallbackOnDefaultScoring(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var scr Scratch
	for trial := 0; trial < 3000; trial++ {
		a := randSeqFrom(rng, bpAlphabets[1], 1+rng.Intn(250))
		b := mutate(rng, bpAlphabets[1], a, 0.2)
		if len(b) == 0 {
			continue
		}
		for band := 0; band <= bpMaxBand; band++ {
			scr.BandedNW(a, b, band, DefaultScoring)
			if _, ok := scr.bitNW(a, b, band, DefaultScoring); !ok && bpEligible(widenBand(a, b, band), DefaultScoring) {
				t.Fatalf("pinned bit-parallel kernel bailed (band=%d a=%q b=%q)", band, a, b)
			}
		}
	}
	if scr.bpFallbacks != 0 {
		t.Fatalf("bit-parallel kernel fell back %d times on default scoring", scr.bpFallbacks)
	}
}

// TestBitParallelZeroAlloc: steady-state bit-parallel calls allocate
// nothing (Eq masks, adj table and trace masks all live in the Scratch).
func TestBitParallelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var scr Scratch
	a := randSeqFrom(rng, bpAlphabets[1], 150)
	b := mutate(rng, bpAlphabets[1], a, 0.05)
	scr.bitNW(a, b, 6, DefaultScoring) // warm buffers
	allocs := testing.AllocsPerRun(200, func() {
		scr.bitNW(a, b, 6, DefaultScoring)
	})
	if allocs != 0 {
		t.Fatalf("steady-state bit-parallel BandedNW allocates %.1f/op, want 0", allocs)
	}
}

// FuzzBitParallelNW cross-checks the kernels on fuzzer-chosen byte
// strings (any bytes, not just bases) and band/scoring combinations.
func FuzzBitParallelNW(f *testing.F) {
	f.Add([]byte("ACGTACGTACGT"), []byte("ACGTACGTAGGT"), 6, 1, -1, -2)
	f.Add([]byte("AAAA#NNNN"), []byte("AAAANNNN"), 3, 1, -2, -1)
	f.Add([]byte("A"), []byte("ACGT"), 0, 2, -3, -4)
	f.Add([]byte("NNNNNNNN"), []byte("N"), 7, 1, -1, -2)
	f.Fuzz(func(t *testing.T, a, b []byte, band, match, mismatch, gap int) {
		if len(a) == 0 || len(b) == 0 || len(a) > 400 || len(b) > 400 {
			return
		}
		if band < 0 || band > 16 {
			return
		}
		sc := Scoring{Match: match, Mismatch: mismatch, Gap: gap}
		if !bpEligible(band, sc) {
			return
		}
		var scr, ref Scratch
		checkPair(t, &scr, &ref, a, b, band, sc)
	})
}
