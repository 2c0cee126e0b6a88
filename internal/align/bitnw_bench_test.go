package align

import (
	"math/rand"
	"strings"
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
			_, _ = scr.bitNW(a, b, 6, DefaultScoring)
		}
	})
}

// BenchmarkOverlapOnDiagonal times the full verdict (window computation,
// the DP-free rules, kernel, classification) by candidate class on
// 100 bp reads under the paper thresholds: a 40-base window no alignment
// can carry to MinLength (O(1) reject); a 90-base suffix-prefix window with
// 0 or 2 substitutions (ungapped optimum, no search), with 3, 5 or 8
// scattered and with 3 adjacent ones (certified by the wavefront search);
// with 12 or 20 (a homologous window of another genus: under 90 %
// identity ungapped, rejected by the identity bound); and with one deleted
// base — mid-window (ungapped under 90 %, the bound declines, the kernel
// traces the gap) and 12 bases from the end (certificate attempted,
// declined, then the kernel: the dearest route).
func BenchmarkOverlapOnDiagonal(bb *testing.B) {
	rng := rand.New(rand.NewSource(99))
	genome := randSeq(rng, 200)
	a := genome[:100]
	for _, c := range []struct {
		name     string
		n        int // window length
		subs     []int
		deletion int // position of a deleted base, 0 for none
	}{
		{name: "short_window", n: 40},
		{name: "mismatches_0", n: 90},
		{name: "mismatches_2", n: 90, subs: []int{12, 71}},
		{name: "mismatches_3", n: 90, subs: []int{12, 40, 71}},
		{name: "mismatches_5", n: 90, subs: []int{3, 25, 40, 66, 88}},
		{name: "mismatches_8", n: 90, subs: []int{3, 12, 25, 40, 52, 66, 71, 88}},
		{name: "mismatches_12", n: 90, subs: []int{3, 9, 12, 25, 31, 40, 47, 52, 66, 71, 80, 88}},
		{name: "mismatches_20", n: 90, subs: []int{1, 3, 9, 12, 18, 25, 29, 31, 37, 40, 44, 47, 52, 58, 63, 66, 71, 77, 80, 88}},
		{name: "adjacent_3", n: 90, subs: []int{40, 41, 42}},
		{name: "one_indel", n: 90, deletion: 45},
		{name: "late_indel", n: 90, deletion: 78},
	} {
		b := append([]byte(nil), genome[100-c.n:200-c.n]...)
		for _, p := range c.subs {
			b[p] = "ACGT"[(strings.IndexByte("ACGT", b[p])+1)%4]
		}
		if c.deletion > 0 {
			b = append(b[:c.deletion], b[c.deletion+1:]...)
		}
		bb.Run(c.name, func(bb *testing.B) {
			cfg := DefaultConfig()
			var scr Scratch
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				_, _ = scr.OverlapOnDiagonal(a, b, 100-c.n, cfg)
			}
		})
	}
}
