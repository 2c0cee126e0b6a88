package align

import (
	"math/rand"
	"testing"
)

// benchPair is the same shape as BenchmarkBandedNW's input: 100bp reads,
// ~5 substitutions, band 6 — the overlap stage's hot-path geometry.
func benchPair(seed int64) (a, b []byte) {
	rng := rand.New(rand.NewSource(seed))
	a = randSeq(rng, 100)
	b = append([]byte(nil), a...)
	for i := 0; i < 5; i++ {
		b[rng.Intn(len(b))] = "ACGT"[rng.Intn(4)]
	}
	return a, b
}

// BenchmarkBandedNWBitParallel compares the kernels on the hot-path
// input (the acceptance criterion is bit-parallel >= 2x scalar here).
func BenchmarkBandedNWBitParallel(bb *testing.B) {
	a, b := benchPair(42)
	bb.Run("scalar", func(bb *testing.B) {
		var scr Scratch
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			_ = scr.scalarNW(a, b, 6, DefaultScoring)
		}
	})
	bb.Run("bitparallel", func(bb *testing.B) {
		var scr Scratch
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			_ = scr.BandedNW(a, b, 6, DefaultScoring)
		}
	})
}

// BenchmarkOverlapKernel measures the full OverlapOnDiagonal path (window
// computation + kernel + classification).
func BenchmarkOverlapKernel(bb *testing.B) {
	rng := rand.New(rand.NewSource(99))
	a := randSeq(rng, 150)
	b := append([]byte(nil), a[60:]...)
	b = append(b, randSeq(rng, 60)...) // 90bp suffix-prefix overlap
	for i := 0; i < 4; i++ {
		b[rng.Intn(90)] = "ACGT"[rng.Intn(4)]
	}
	cfg := DefaultConfig()
	var scr Scratch
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		_, _ = scr.OverlapOnDiagonal(a, b, 60, cfg)
	}
}
