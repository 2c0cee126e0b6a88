package dna

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, seq []byte) {
	t.Helper()
	packed := Pack(nil, seq)
	got, rest, err := Unpack(nil, packed)
	if err != nil {
		t.Fatalf("Unpack(%q): %v", seq, err)
	}
	if len(rest) != 0 {
		t.Fatalf("Unpack(%q): %d trailing bytes", seq, len(rest))
	}
	if !bytes.Equal(got, seq) {
		t.Fatalf("round trip of %q gave %q", seq, got)
	}
}

func TestPackRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("A"),
		[]byte("ACGT"),
		[]byte("ACGTACGTACGTACG"), // non-multiple-of-4 tail
		[]byte("NNNN"),            // all escapes
		[]byte("ACGNNGTA"),
		[]byte("acgt"),          // lowercase is escaped, not canonicalized
		[]byte("AC#GT#A"),       // suffix-array separator bytes
		[]byte("NACGT"),         // escape at position 0
		[]byte("ACGTN"),         // escape at the last position
		[]byte{0, 255, 'A', 17}, // arbitrary bytes
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestPackRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte("ACGTACGTACGTACGTN#acgt") // mostly ACGT, some escapes
	for i := 0; i < 1000; i++ {
		n := rng.Intn(300)
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = alphabet[rng.Intn(len(alphabet))]
		}
		roundTrip(t, seq)
	}
}

// TestPackAppend checks both functions' append semantics: packing after
// existing bytes, unpacking onto an existing destination, and consuming
// one of several concatenated sequences.
func TestPackAppend(t *testing.T) {
	a, b := []byte("ACGTN"), []byte("GGC")
	buf := Pack(Pack(nil, a), b)
	dst := []byte("prefix")
	dst, rest, err := Unpack(dst, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(dst) != "prefixACGTN" {
		t.Fatalf("append-unpack gave %q", dst)
	}
	dst, rest, err = Unpack(dst, rest)
	if err != nil {
		t.Fatal(err)
	}
	if string(dst) != "prefixACGTNGGC" || len(rest) != 0 {
		t.Fatalf("second unpack gave %q with %d rest bytes", dst, len(rest))
	}
}

func TestPackSize(t *testing.T) {
	seq := bytes.Repeat([]byte("ACGT"), 100)
	packed := Pack(nil, seq)
	// Header (two uvarints, no escapes) plus 2 bits per base.
	if bound := binary.MaxVarintLen64 + 1 + (len(seq)+3)/4; len(packed) > bound {
		t.Fatalf("packed %d bases into %d bytes, bound %d", len(seq), len(packed), bound)
	}
	// ~4x smaller than raw for clean sequence data.
	if len(packed) >= len(seq)/3 {
		t.Fatalf("packed size %d not compact for %d bases", len(packed), len(seq))
	}
}

func TestUnpackTruncated(t *testing.T) {
	full := Pack(nil, []byte("ACGTNACGTACGTACGT"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Unpack(nil, full[:cut]); err == nil {
			t.Fatalf("Unpack of %d/%d bytes succeeded", cut, len(full))
		}
	}
}

func BenchmarkPack(b *testing.B) {
	seq := bytes.Repeat([]byte("ACGTGGCTA"), 100)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Pack(buf[:0], seq)
	}
}

func BenchmarkUnpack(b *testing.B) {
	packed := Pack(nil, bytes.Repeat([]byte("ACGTGGCTA"), 100))
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, _, err := Unpack(dst[:0], packed)
		if err != nil {
			b.Fatal(err)
		}
		dst = d
	}
}
