package overlap

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bruteSA builds a suffix array by sorting all suffixes directly.
func bruteSA(data []byte) []int {
	sa := make([]int, len(data))
	for i := range sa {
		sa[i] = i
	}
	sort.Slice(sa, func(i, j int) bool {
		return bytes.Compare(data[sa[i]:], data[sa[j]:]) < 0
	})
	return sa
}

func checkEqual(t *testing.T, data []byte, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("data %q: len %d, want %d", data, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("data %q: sa[%d] = %d, want %d\ngot  %v\nwant %v", data, i, got[i], want[i], got, want)
		}
	}
}

func TestQsufsortSmallCases(t *testing.T) {
	cases := []string{
		"",
		"a",
		"aa",
		"ab",
		"ba",
		"aaa",
		"aba",
		"abab",
		"banana",
		"mississippi",
		"ACGTACGTACGT",
		"AAAAAAAAAA",
		"abcabxabcd",
		"zyxwvutsrqponm",
	}
	for _, s := range cases {
		data := []byte(s)
		checkEqual(t, data, newSuffixArray(data).sa, bruteSA(data))
	}
}

func TestQsufsortRandomDNA(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	alpha := []byte("ACGT")
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(400)
		data := make([]byte, n)
		for i := range data {
			data[i] = alpha[rng.Intn(4)]
		}
		checkEqual(t, data, newSuffixArray(data).sa, bruteSA(data))
	}
}

func TestQsufsortRandomBinary(t *testing.T) {
	// Small alphabets stress group splitting hardest.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte('a' + rng.Intn(2))
		}
		checkEqual(t, data, newSuffixArray(data).sa, bruteSA(data))
	}
}

func TestQsufsortQuick(t *testing.T) {
	f := func(data []byte) bool {
		got := newSuffixArray(append([]byte(nil), data...)).sa
		want := bruteSA(data)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSuffixArrayIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte("ACGT"[rng.Intn(4)])
	}
	a := newSuffixArray(data)
	seen := make([]bool, len(data))
	for i := 0; i < a.Len(); i++ {
		p := a.At(i)
		if p < 0 || p >= len(data) || seen[p] {
			t.Fatalf("position %d invalid or repeated", p)
		}
		seen[p] = true
	}
}

func TestLookup(t *testing.T) {
	data := []byte("GATTACAGATTACA")
	a := newSuffixArray(data)
	cases := []struct {
		pattern string
		want    []int
	}{
		{"GATTACA", []int{0, 7}},
		{"ATTA", []int{1, 8}},
		{"A", []int{1, 4, 6, 8, 11, 13}},
		{"GATTACAGATTACA", []int{0}},
		{"CCCC", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := a.Lookup([]byte(c.pattern), -1)
		sort.Ints(got)
		if len(got) != len(c.want) {
			t.Errorf("Lookup(%q) = %v, want %v", c.pattern, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("Lookup(%q) = %v, want %v", c.pattern, got, c.want)
				break
			}
		}
	}
}

func TestLookupMax(t *testing.T) {
	data := bytes.Repeat([]byte("A"), 50)
	a := newSuffixArray(data)
	if got := a.Lookup([]byte("AA"), 5); len(got) != 5 {
		t.Errorf("max=5 returned %d hits", len(got))
	}
	if got := a.Lookup([]byte("AA"), 0); got != nil {
		t.Errorf("max=0 returned %v", got)
	}
	if got := a.Lookup([]byte("AA"), -1); len(got) != 49 {
		t.Errorf("max=-1 returned %d hits, want 49", len(got))
	}
}

// TestLookupMaxMatchesUncapped asserts the clamped scan window introduced
// for capped lookups is invisible to callers: for every max, the result
// equals the first max positions (in suffix-array order) of the uncapped
// lookup.
func TestLookupMaxMatchesUncapped(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := make([]byte, 800)
	for i := range data {
		data[i] = byte("ACGT"[rng.Intn(4)]) // small alphabet: many repeats
	}
	a := newSuffixArray(data)
	for trial := 0; trial < 300; trial++ {
		plen := 1 + rng.Intn(6)
		at := rng.Intn(len(data) - plen)
		pattern := data[at : at+plen]
		full := a.Lookup(pattern, -1)
		for _, max := range []int{1, 2, 3, 5, len(full), len(full) + 7} {
			got := a.Lookup(pattern, max)
			want := full
			if max < len(want) {
				want = want[:max]
			}
			if len(got) != len(want) {
				t.Fatalf("pattern %q max=%d: %d hits, want %d", pattern, max, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pattern %q max=%d hit %d: %d, want %d", pattern, max, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkLookupCapped shows the early-stop win: capped lookups of a
// high-frequency pattern no longer scan the full occurrence range.
func BenchmarkLookupCapped(b *testing.B) {
	data := bytes.Repeat([]byte("ACGT"), 25_000)
	a := newSuffixArray(data)
	pattern := []byte("ACGTACGT")
	for _, max := range []int{-1, 65} {
		name := "uncapped"
		if max > 0 {
			name = "max65"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := a.Lookup(pattern, max); len(got) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

func TestLookupMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 500)
	for i := range data {
		data[i] = byte("ACGT"[rng.Intn(4)])
	}
	a := newSuffixArray(data)
	for trial := 0; trial < 200; trial++ {
		plen := 1 + rng.Intn(8)
		at := rng.Intn(len(data) - plen)
		pattern := data[at : at+plen]
		got := a.Lookup(pattern, -1)
		sort.Ints(got)
		var want []int
		for i := 0; i+plen <= len(data); i++ {
			if bytes.Equal(data[i:i+plen], pattern) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("pattern %q: got %v, want %v", pattern, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pattern %q: got %v, want %v", pattern, got, want)
			}
		}
	}
}

func BenchmarkQsufsort100k(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte("ACGT"[rng.Intn(4)])
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSuffixArray(data)
	}
}
