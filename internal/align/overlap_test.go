package align

import (
	"math/rand"
	"strings"
	"testing"
)

func lenientConfig() Config {
	return Config{MinLength: 4, MinIdentity: 0.9, Band: 3, Scoring: DefaultScoring}
}

func TestOverlapSuffixPrefix(t *testing.T) {
	//      A: GGGGACGT
	//      B:     ACGTCCCC   (diag = 4)
	a := []byte("GGGGACGT")
	b := []byte("ACGTCCCC")
	ov, ok := OverlapOnDiagonal(a, b, 4, lenientConfig())
	if !ok {
		t.Fatal("overlap rejected")
	}
	if ov.Kind != KindSuffixPrefix {
		t.Errorf("kind = %v", ov.Kind)
	}
	if ov.Length != 4 || ov.Identity != 1.0 {
		t.Errorf("ov = %+v", ov)
	}
}

func TestOverlapPrefixSuffix(t *testing.T) {
	// B precedes A: diag negative.
	a := []byte("ACGTCCCC")
	b := []byte("GGGGACGT")
	ov, ok := OverlapOnDiagonal(a, b, -4, lenientConfig())
	if !ok {
		t.Fatal("overlap rejected")
	}
	if ov.Kind != KindPrefixSuffix {
		t.Errorf("kind = %v", ov.Kind)
	}
	if ov.Length != 4 {
		t.Errorf("length = %d", ov.Length)
	}
}

func TestOverlapContainment(t *testing.T) {
	a := []byte("GGGGACGTACGTCCCC")
	b := []byte("ACGTACGT")
	ov, ok := OverlapOnDiagonal(a, b, 4, lenientConfig())
	if !ok {
		t.Fatal("overlap rejected")
	}
	if ov.Kind != KindAContainsB {
		t.Errorf("kind = %v", ov.Kind)
	}
	ov, ok = OverlapOnDiagonal(b, a, -4, lenientConfig())
	if !ok {
		t.Fatal("reverse containment rejected")
	}
	if ov.Kind != KindBContainsA {
		t.Errorf("kind = %v", ov.Kind)
	}
}

func TestOverlapEqualReads(t *testing.T) {
	a := []byte("ACGTACGTAC")
	ov, ok := OverlapOnDiagonal(a, a, 0, lenientConfig())
	if !ok {
		t.Fatal("self overlap rejected")
	}
	if ov.Kind != KindAContainsB {
		t.Errorf("kind = %v, want containment", ov.Kind)
	}
	if ov.Identity != 1.0 || ov.Length != len(a) {
		t.Errorf("ov = %+v", ov)
	}
}

func TestOverlapRejectsShort(t *testing.T) {
	a := []byte("GGGGACGT")
	b := []byte("ACGTCCCC")
	cfg := lenientConfig()
	cfg.MinLength = 5
	if _, ok := OverlapOnDiagonal(a, b, 4, cfg); ok {
		t.Error("4-column overlap accepted with MinLength 5")
	}
}

func TestOverlapRejectsLowIdentity(t *testing.T) {
	a := []byte("AAAAAAAATTTT")
	b := []byte("TTTTGGGGGGGG") // overlap TTTT... only 4/12 window
	cfg := lenientConfig()
	cfg.MinIdentity = 0.95
	// diag 8: windows a[8:12] vs b[0:4] = TTTT vs TTTT identity 1, len 4.
	ov, ok := OverlapOnDiagonal(a, b, 8, cfg)
	if !ok || ov.Identity != 1 {
		t.Fatalf("clean overlap rejected: %+v %v", ov, ok)
	}
	// diag 4: a[4:12] vs b[0:8] = AAAATTTT vs TTTTGGGG, low identity.
	if _, ok := OverlapOnDiagonal(a, b, 4, cfg); ok {
		t.Error("low-identity overlap accepted")
	}
}

func TestOverlapNoWindow(t *testing.T) {
	a := []byte("ACGT")
	b := []byte("ACGT")
	if _, ok := OverlapOnDiagonal(a, b, 10, lenientConfig()); ok {
		t.Error("disjoint diagonal accepted")
	}
	if _, ok := OverlapOnDiagonal(a, b, -10, lenientConfig()); ok {
		t.Error("disjoint negative diagonal accepted")
	}
}

func TestOverlapToleratesErrors(t *testing.T) {
	// 60-base overlap with 3 substitutions: identity 0.95, above 0.90.
	rng := rand.New(rand.NewSource(35))
	left := randSeq(rng, 40)
	shared := randSeq(rng, 60)
	right := randSeq(rng, 40)
	a := append(append([]byte{}, left...), shared...)
	mutated := append([]byte(nil), shared...)
	for i := 0; i < 3; i++ {
		at := rng.Intn(len(mutated))
		mutated[at] = "ACGT"[rng.Intn(4)]
	}
	b := append(append([]byte{}, mutated...), right...)
	cfg := DefaultConfig()
	ov, ok := OverlapOnDiagonal(a, b, 40, cfg)
	if !ok {
		t.Fatal("noisy overlap rejected")
	}
	if ov.Kind != KindSuffixPrefix {
		t.Errorf("kind = %v", ov.Kind)
	}
	if ov.Identity < 0.90 {
		t.Errorf("identity = %v", ov.Identity)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNone:         "none",
		KindSuffixPrefix: "suffix-prefix",
		KindPrefixSuffix: "prefix-suffix",
		KindAContainsB:   "a-contains-b",
		KindBContainsA:   "b-contains-a",
		Kind(99):         "Kind(99)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MinLength != 50 {
		t.Errorf("MinLength = %d, want 50 (paper §VI.A)", cfg.MinLength)
	}
	if cfg.MinIdentity != 0.90 {
		t.Errorf("MinIdentity = %v, want 0.90 (paper §VI.A)", cfg.MinIdentity)
	}
}

func TestOverlapWindowsRespectReadBounds(t *testing.T) {
	// Fuzz diag over the full range; must never panic and must classify
	// consistently with the geometry.
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 500; trial++ {
		a := randSeq(rng, 10+rng.Intn(50))
		b := randSeq(rng, 10+rng.Intn(50))
		diag := rng.Intn(140) - 70
		cfg := Config{MinLength: 1, MinIdentity: 0, Band: 3, Scoring: DefaultScoring}
		ov, ok := OverlapOnDiagonal(a, b, diag, cfg)
		if !ok {
			continue
		}
		switch ov.Kind {
		case KindAContainsB:
			if !(diag >= 0 && diag+len(b) <= len(a)) {
				t.Fatalf("bad containment: diag=%d lens %d/%d", diag, len(a), len(b))
			}
		case KindBContainsA:
			if !(diag <= 0 && -diag+len(a) <= len(b)) {
				t.Fatalf("bad reverse containment: diag=%d lens %d/%d", diag, len(a), len(b))
			}
		case KindSuffixPrefix:
			if diag <= 0 {
				t.Fatalf("suffix-prefix with diag %d", diag)
			}
		case KindPrefixSuffix:
			if diag >= 0 {
				t.Fatalf("prefix-suffix with diag %d", diag)
			}
		}
	}
}

func TestOverlapLongSharedRegion(t *testing.T) {
	shared := strings.Repeat("ACGTGCTA", 10)
	a := []byte("GG" + shared)
	b := []byte(shared + "TT")
	ov, ok := OverlapOnDiagonal(a, b, 2, DefaultConfig())
	if !ok {
		t.Fatal("rejected")
	}
	if ov.Length != 80 || ov.Identity != 1 {
		t.Errorf("ov = %+v", ov)
	}
}

// BenchmarkOverlapOnDiagonal times the full verdict (window computation,
// the DP-free rules, the DP, classification) by candidate class on
// 100 bp reads under the paper thresholds: a 40-base window no alignment
// can carry to MinLength (O(1) reject); a 90-base suffix-prefix window with
// 0 or 2 substitutions (ungapped optimum, no search), with 3, 5 or 8
// scattered and with 3 adjacent ones (certified by the wavefront search);
// with 12 or 20 (a homologous window of another genus: under 90 %
// identity ungapped, rejected by the identity bound); and with one deleted
// base — mid-window (ungapped under 90 %, the bound declines, the DP
// traces the gap) and 12 bases from the end (certificate attempted,
// declined, then the DP: the dearest route).
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
