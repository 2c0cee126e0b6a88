package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidBase(t *testing.T) {
	for _, b := range []byte("ACGTN") {
		if !ValidBase(b) {
			t.Errorf("ValidBase(%q) = false, want true", b)
		}
	}
	for _, b := range []byte("acgtnXYZ @0-") {
		if ValidBase(b) {
			t.Errorf("ValidBase(%q) = true, want false", b)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}
	for b, want := range pairs {
		if got := Complement(b); got != want {
			t.Errorf("Complement(%q) = %q, want %q", b, got, want)
		}
	}
}

func TestComplementPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Complement('X') did not panic")
		}
	}()
	Complement('X')
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"AC", "GT"},
		{"ACGT", "ACGT"},
		{"AACGTN", "NACGTT"},
		{"GATTACA", "TGTAATC"},
	}
	for _, c := range cases {
		if got := ReverseComplement([]byte(c.in)); string(got) != c.want {
			t.Errorf("ReverseComplement(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsReverseComplement(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"AACGTN", "NACGTT", true},
		{"NACGTT", "AACGTN", true},
		{"ACGT", "ACGT", true},
		{"ACGT", "ACG", false},
		{"AACGTN", "NACGTA", false},
		{"A#", "#T", false}, // not a base, even where the bytes line up
		{"a", "t", false},
	} {
		if got := IsReverseComplement([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("IsReverseComplement(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestReverseComplementInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		seq := RandomSeq(rng, rng.Intn(64))
		want := ReverseComplement(seq)
		got := append([]byte(nil), seq...)
		ReverseComplementInPlace(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("in-place rc of %q = %q, want %q", seq, got, want)
		}
	}
}

// RandomSeq returns a random ACGT sequence of length n (test helper, shared
// across this package's tests).
func RandomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = codeBase[rng.Intn(4)]
	}
	return s
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = codeBase[b&3]
		}
		return bytes.Equal(ReverseComplement(ReverseComplement(seq)), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidateSeq(t *testing.T) {
	if err := ValidateSeq([]byte("ACGTNACGT")); err != nil {
		t.Errorf("ValidateSeq(valid) = %v", err)
	}
	if err := ValidateSeq([]byte("ACGX")); err == nil {
		t.Error("ValidateSeq(ACGX) = nil, want error")
	}
}

func TestBaseCodeRoundTrip(t *testing.T) {
	for _, b := range []byte("ACGT") {
		c, ok := BaseCode(b)
		if !ok {
			t.Fatalf("BaseCode(%q) not ok", b)
		}
		if CodeBase(c) != b {
			t.Errorf("CodeBase(BaseCode(%q)) = %q", b, CodeBase(c))
		}
	}
	if _, ok := BaseCode('N'); ok {
		t.Error("BaseCode('N') ok, want not ok")
	}
}

func TestGC(t *testing.T) {
	cases := []struct {
		seq  string
		want float64
	}{
		{"", 0},
		{"NNN", 0},
		{"GGCC", 1},
		{"AATT", 0},
		{"ACGT", 0.5},
		{"ACGTNN", 0.5},
	}
	for _, c := range cases {
		if got := GC([]byte(c.seq)); got != c.want {
			t.Errorf("GC(%q) = %v, want %v", c.seq, got, c.want)
		}
	}
}
