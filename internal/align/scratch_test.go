package align

import (
	"math/rand"
	"testing"
)

// TestScratchBandedNWMatchesAllocating asserts the borrowed-buffer kernel
// returns bit-identical alignments to the allocating entry point across
// random inputs, bands, and repeated (dirty-buffer) reuse.
func TestScratchBandedNWMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scr Scratch
	for trial := 0; trial < 300; trial++ {
		n, m := rng.Intn(120), rng.Intn(120)
		a, b := randSeq(rng, n), randSeq(rng, m)
		// Mutate b toward a sometimes so real alignments occur.
		if n > 0 && m > 0 && rng.Intn(2) == 0 {
			copy(b, a[:min(n, m)])
			for i := 0; i < m/10; i++ {
				b[rng.Intn(m)] = "ACGT"[rng.Intn(4)]
			}
		}
		band := rng.Intn(12)
		want := BandedNW(a, b, band, DefaultScoring)
		got := scr.BandedNW(a, b, band, DefaultScoring) // reused, dirty buffers
		if got != want {
			t.Fatalf("trial=%d n=%d m=%d band=%d: %+v (scratch) vs %+v (alloc)", trial, n, m, band, got, want)
		}
	}
}

// TestScratchOverlapOnDiagonalMatches does the same for the overlap
// classifier wrapper.
func TestScratchOverlapOnDiagonalMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var scr Scratch
	cfg := DefaultConfig()
	cfg.MinLength = 10
	cfg.MinIdentity = 0.5
	for trial := 0; trial < 300; trial++ {
		genome := randSeq(rng, 300)
		a := genome[:100+rng.Intn(100)]
		off := rng.Intn(150)
		b := genome[off : off+50+rng.Intn(100)]
		diag := off + rng.Intn(5) - 2
		want, okW := OverlapOnDiagonal(a, b, diag, cfg)
		got, okG := scr.OverlapOnDiagonal(a, b, diag, cfg)
		if okW != okG || got != want {
			t.Fatalf("trial=%d diag=%d: (%+v,%v) vs (%+v,%v)", trial, diag, got, okG, want, okW)
		}
	}
}

// TestScratchBandedNWZeroAlloc pins the scratch kernel's zero-allocation
// contract steady-state.
func TestScratchBandedNWZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a, b := randSeq(rng, 100), randSeq(rng, 100)
	var scr Scratch
	scr.BandedNW(a, b, 6, DefaultScoring) // warm up buffers
	allocs := testing.AllocsPerRun(100, func() {
		scr.BandedNW(a, b, 6, DefaultScoring)
	})
	if allocs != 0 {
		t.Errorf("scratch BandedNW allocated %v times per run", allocs)
	}
}

// BenchmarkBandedNW contrasts the allocating kernel with the
// scratch-reusing one on a typical overlap window (100 bp, band 6).
func BenchmarkBandedNW(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	x := randSeq(rng, 100)
	y := append([]byte(nil), x...)
	for i := 0; i < 5; i++ {
		y[rng.Intn(len(y))] = "ACGT"[rng.Intn(4)]
	}
	b.Run("allocating", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BandedNW(x, y, 6, DefaultScoring)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var scr Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scr.BandedNW(x, y, 6, DefaultScoring)
		}
	})
}
