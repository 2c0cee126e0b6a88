package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackKmer(t *testing.T) {
	km, ok := PackKmer([]byte("ACGT"), 4)
	if !ok {
		t.Fatal("PackKmer(ACGT,4) not ok")
	}
	// A=00 C=01 G=10 T=11 -> 0b00011011 = 27
	if km != 27 {
		t.Errorf("PackKmer(ACGT,4) = %d, want 27", km)
	}
	if km.String(4) != "ACGT" {
		t.Errorf("String = %q, want ACGT", km.String(4))
	}
}

func TestPackKmerRejects(t *testing.T) {
	if _, ok := PackKmer([]byte("ACNT"), 4); ok {
		t.Error("PackKmer with N succeeded")
	}
	if _, ok := PackKmer([]byte("AC"), 4); ok {
		t.Error("PackKmer with short seq succeeded")
	}
	if _, ok := PackKmer([]byte("ACGT"), 0); ok {
		t.Error("PackKmer with k=0 succeeded")
	}
	if _, ok := PackKmer(make([]byte, 40), 33); ok {
		t.Error("PackKmer with k=33 succeeded")
	}
}

func TestKmerStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 15, 16, 31, 32} {
		for trial := 0; trial < 50; trial++ {
			seq := RandomSeq(rng, k)
			km, ok := PackKmer(seq, k)
			if !ok {
				t.Fatalf("pack failed for %q", seq)
			}
			if got := km.String(k); got != string(seq) {
				t.Fatalf("k=%d: round trip %q -> %q", k, seq, got)
			}
		}
	}
}

func TestKmerReverseComplementMatchesSequenceRC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 5, 16, 32} {
		for trial := 0; trial < 50; trial++ {
			seq := RandomSeq(rng, k)
			km, _ := PackKmer(seq, k)
			want, _ := PackKmer(ReverseComplement(seq), k)
			if got := km.ReverseComplement(k); got != want {
				t.Fatalf("k=%d seq=%q: rc=%v want %v", k, seq, got.String(k), want.String(k))
			}
		}
	}
}

func TestKmerCanonicalProperties(t *testing.T) {
	f := func(raw []byte, kraw uint8) bool {
		k := int(kraw)%MaxK + 1
		if len(raw) < k {
			return true
		}
		seq := make([]byte, k)
		for i := 0; i < k; i++ {
			seq[i] = codeBase[raw[i]&3]
		}
		km, _ := PackKmer(seq, k)
		can := km.Canonical(k)
		// Canonical is idempotent and equal for a k-mer and its RC.
		return can.Canonical(k) == can && km.ReverseComplement(k).Canonical(k) == can &&
			(can == km || can == km.ReverseComplement(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKmerIterMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range []int{3, 8, 21, 32} {
		seq := RandomSeq(rng, 200)
		it := NewKmerIter(seq, k)
		for want := 0; want+k <= len(seq); want++ {
			km, off, ok := it.Next()
			if !ok {
				t.Fatalf("k=%d: iterator ended early at offset %d", k, want)
			}
			if off != want {
				t.Fatalf("k=%d: offset %d, want %d", k, off, want)
			}
			exp, _ := PackKmer(seq[want:], k)
			if km != exp {
				t.Fatalf("k=%d off=%d: kmer %v, want %v", k, off, km.String(k), exp.String(k))
			}
		}
		if _, _, ok := it.Next(); ok {
			t.Fatalf("k=%d: iterator did not end", k)
		}
	}
}

func TestKmerIterSkipsN(t *testing.T) {
	seq := []byte("ACGTNACGT")
	it := NewKmerIter(seq, 3)
	var offsets []int
	for {
		_, off, ok := it.Next()
		if !ok {
			break
		}
		offsets = append(offsets, off)
	}
	want := []int{0, 1, 5, 6}
	if len(offsets) != len(want) {
		t.Fatalf("offsets = %v, want %v", offsets, want)
	}
	for i := range want {
		if offsets[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", offsets, want)
		}
	}
}

// TestCountKmers: ForEachKmer visits exactly the N-free windows.
func TestCountKmers(t *testing.T) {
	for _, c := range []struct {
		seq     string
		k, want int
	}{{"ACGTACGT", 4, 5}, {"ACNTA", 2, 2}, {"AC", 4, 0}} {
		n := 0
		ForEachKmer([]byte(c.seq), c.k, func(Kmer, int) { n++ })
		if n != c.want {
			t.Errorf("%q k=%d: %d windows, want %d", c.seq, c.k, n, c.want)
		}
	}
}

func TestNewKmerIterPanicsOnBadK(t *testing.T) {
	for _, k := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewKmerIter(k=%d) did not panic", k)
				}
			}()
			NewKmerIter([]byte("ACGT"), k)
		}()
	}
}

// TestForEachKmerMatchesIter checks the callback enumerator against the
// iterator on mixed sequences.
func TestForEachKmerMatchesIter(t *testing.T) {
	seq := []byte("ACGTNACGTTGCA#GGGTTT")
	k := 3
	var got []struct {
		km  Kmer
		off int
	}
	ForEachKmer(seq, k, func(km Kmer, off int) {
		got = append(got, struct {
			km  Kmer
			off int
		}{km, off})
	})
	it := NewKmerIter(seq, k)
	i := 0
	for {
		km, off, ok := it.Next()
		if !ok {
			break
		}
		if i >= len(got) || got[i].km != km || got[i].off != off {
			t.Fatalf("entry %d mismatch", i)
		}
		i++
	}
	if i != len(got) {
		t.Fatalf("ForEachKmer yielded %d k-mers, iterator %d", len(got), i)
	}
}

// TestForEachKmerSeparatorsFuzz is a fuzz-style check of packed-k-mer
// enumeration around '#' separators (the overlap indexer concatenates
// reads with '#'): against a naive PackKmer-per-window reference, no
// window spanning a separator or N may ever be emitted.
func TestForEachKmerSeparatorsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("ACGTN#")
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(MaxK)
		n := rng.Intn(120)
		seq := make([]byte, n)
		for i := range seq {
			// Bias toward real bases with occasional separators/Ns.
			if rng.Intn(8) == 0 {
				seq[i] = alphabet[4+rng.Intn(2)]
			} else {
				seq[i] = alphabet[rng.Intn(4)]
			}
		}
		type ko struct {
			km  Kmer
			off int
		}
		var got []ko
		ForEachKmer(seq, k, func(km Kmer, off int) {
			got = append(got, ko{km, off})
		})
		var want []ko
		for off := 0; off+k <= len(seq); off++ {
			if km, ok := PackKmer(seq[off:off+k], k); ok {
				want = append(want, ko{km, off})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial=%d k=%d seq=%q: %d k-mers, want %d", trial, k, seq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial=%d k=%d entry %d: %+v, want %+v", trial, k, i, got[i], want[i])
			}
		}
	}
}

func TestKmerAppendBytes(t *testing.T) {
	km, ok := PackKmer([]byte("GATTACA"), 7)
	if !ok {
		t.Fatal("pack failed")
	}
	buf := km.AppendBytes([]byte("x"), 7)
	if string(buf) != "xGATTACA" {
		t.Errorf("AppendBytes = %q", buf)
	}
	// Reusing the buffer must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		buf = km.AppendBytes(buf[:1], 7)
	})
	if allocs != 0 {
		t.Errorf("AppendBytes allocated %v times per run", allocs)
	}
	if km.String(7) != "GATTACA" {
		t.Errorf("String = %q", km.String(7))
	}
}
