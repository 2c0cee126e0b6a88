package dna

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadFASTA(t *testing.T) {
	in := ">r1 some description\nACGT\nacgt\n\n>r2\nNNNA\n"
	reads, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Fatalf("got %d reads, want 2", len(reads))
	}
	if reads[0].ID != "r1" || string(reads[0].Seq) != "ACGTACGT" {
		t.Errorf("read 0 = %+v", reads[0])
	}
	if reads[1].ID != "r2" || string(reads[1].Seq) != "NNNA" {
		t.Errorf("read 1 = %+v", reads[1])
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",      // sequence before header
		">r1\nACGX\n", // invalid base
		"> \nACGT\n",  // empty header
	}
	for _, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFASTA(%q) = nil error", in)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var reads []Read
	for i := 0; i < 20; i++ {
		reads = append(reads, Read{ID: "read" + string(rune('A'+i)), Seq: RandomSeq(rng, 1+rng.Intn(300))})
	}
	for _, width := range []int{0, 1, 60, 1000} {
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, reads, width); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFASTA(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reads) {
			t.Fatalf("width %d: got %d reads, want %d", width, len(got), len(reads))
		}
		for i := range reads {
			if got[i].ID != reads[i].ID || !bytes.Equal(got[i].Seq, reads[i].Seq) {
				t.Fatalf("width %d read %d: %+v != %+v", width, i, got[i], reads[i])
			}
		}
	}
}

func TestReadFASTQ(t *testing.T) {
	in := "@r1 desc\nACGT\n+\nIIII\n@r2\nNA\n+anything\n!~\n"
	reads, err := ReadFASTQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 {
		t.Fatalf("got %d reads, want 2", len(reads))
	}
	if reads[0].ID != "r1" || string(reads[0].Seq) != "ACGT" || string(reads[0].Qual) != "IIII" {
		t.Errorf("read 0 = %+v", reads[0])
	}
	if reads[0].PhredQuality(0) != 40 {
		t.Errorf("PhredQuality = %d, want 40", reads[0].PhredQuality(0))
	}
	if reads[1].PhredQuality(0) != 0 {
		t.Errorf("PhredQuality('!') = %d, want 0", reads[1].PhredQuality(0))
	}
}

func TestReadFASTQErrors(t *testing.T) {
	// One valid record precedes each malformed one so the error must name
	// record 2 and the right line, not just "somewhere in the file".
	const ok = "@good\nACGT\n+\nIIII\n"
	cases := []struct {
		name string
		in   string
		want []string // substrings the error must carry
	}{
		{"bad header", ok + "r2\nACGT\n+\nIIII\n", []string{"record 2", "line 5", "'@'"}},
		{"empty header", ok + "@\nACGT\n+\nIIII\n", []string{"record 2", "line 5", "empty header"}},
		{"truncated seq", ok + "@r2\n", []string{"record 2", "line 5", "missing sequence"}},
		{"empty seq", ok + "@r2\n\n+\n\n", []string{"record 2", "line 6", "empty sequence"}},
		{"bad sep", ok + "@r2\nACGT\nX\nIIII\n", []string{"record 2", "line 7", "'+' separator"}},
		{"truncated sep", ok + "@r2\nACGT\n", []string{"record 2", "line 6", "missing '+' separator"}},
		{"truncated qual", ok + "@r2\nACGT\n+\n", []string{"record 2", "line 7", "missing quality"}},
		{"qual length", ok + "@r2\nACGT\n+\nIII\n", []string{"record 2", "line 8", "quality length 3 != sequence length 4"}},
		{"bad base", ok + "@r2\nACGZ\n+\nIIII\n", []string{"record 2", "line 6", "invalid base"}},
		{"bad qual byte", ok + "@r2\nACGT\n+\nII\x1fI\n", []string{"record 2", "line 8", "invalid quality byte"}},
	}
	for _, tc := range cases {
		_, err := ReadFASTQ(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: ReadFASTQ(%q) = nil error", tc.name, tc.in)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}

func TestReadFASTQCRLF(t *testing.T) {
	in := "@r1 desc\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nNA\r\n+\r\n!~\r\n"
	reads, err := ReadFASTQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 2 || string(reads[0].Seq) != "ACGT" || string(reads[1].Qual) != "!~" {
		t.Fatalf("CRLF parse: %+v", reads)
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var reads []Read
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(150)
		qual := make([]byte, n)
		for j := range qual {
			qual[j] = byte(33 + rng.Intn(42))
		}
		reads = append(reads, Read{ID: "q" + string(rune('A'+i)), Seq: RandomSeq(rng, n), Qual: qual})
	}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, reads); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reads) {
		t.Fatalf("got %d reads, want %d", len(got), len(reads))
	}
	for i := range reads {
		if got[i].ID != reads[i].ID || !bytes.Equal(got[i].Seq, reads[i].Seq) || !bytes.Equal(got[i].Qual, reads[i].Qual) {
			t.Fatalf("read %d mismatch", i)
		}
	}
}

func TestWriteFASTQFillsQuality(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, []Read{{ID: "x", Seq: []byte("ACGT")}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Qual) != "IIII" {
		t.Errorf("qual = %q, want IIII", got[0].Qual)
	}
}

func TestReadClone(t *testing.T) {
	r := Read{ID: "a", Seq: []byte("ACGT"), Qual: []byte("IIII")}
	c := r.Clone()
	c.Seq[0] = 'T'
	c.Qual[0] = '!'
	if r.Seq[0] != 'A' || r.Qual[0] != 'I' {
		t.Error("Clone shares storage with original")
	}
}

// sameReads reports whether two read lists hold the same IDs, sequences
// and qualities.
func sameReads(x, y []Read) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].ID != y[i].ID || !bytes.Equal(x[i].Seq, y[i].Seq) || !bytes.Equal(x[i].Qual, y[i].Qual) {
			return false
		}
	}
	return true
}

// FuzzReadFASTQ: no input may panic the FASTQ parser, and the reads of
// any input it accepts must come back unchanged from WriteFASTQ and a
// second ReadFASTQ.
func FuzzReadFASTQ(f *testing.F) {
	f.Add([]byte("@r1 desc\nACGT\n+\nIIII\n@r2\nnacg\n+r2\n!~#5\n"))
	f.Add([]byte("@r1 desc\r\nACGT\r\n+\r\nIIII\r\n\n\n@r2\r\nNA\r\n+\r\n!~\r\n"))
	f.Add([]byte("@r1\nACGT\n+\nIII\n"))
	f.Add([]byte("@r1\nACGX\n+\nIIII\n"))
	f.Add([]byte("@r1\nACGT\n"))
	f.Add([]byte(">r1\nACGT\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		reads, err := ReadFASTQ(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTQ(&buf, reads); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFASTQ(&buf)
		if err != nil {
			t.Fatalf("re-read of written reads: %v\n%q", err, buf.Bytes())
		}
		if !sameReads(again, reads) {
			t.Fatalf("round trip changed the reads:\n got %q\nwant %q", again, reads)
		}
	})
}

// FuzzReadFASTA: no input may panic the FASTA parser, and the reads of
// any input it accepts must come back unchanged from WriteFASTA, at the
// wrap width the fuzzer picks (0 for none), and a second ReadFASTA.
func FuzzReadFASTA(f *testing.F) {
	f.Add([]byte(">r1 some description\nACGT\nacgt\n\n>r2\nNNNA\n"), uint8(0))
	f.Add([]byte(">r1\r\nAC GT\r\n"), uint8(3))
	f.Add([]byte(">r1\n>r2\nACGTN\t \n"), uint8(2))
	f.Add([]byte("ACGT\n>r1\n"), uint8(60))
	f.Add([]byte("> \nACGT\n"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		reads, err := ReadFASTA(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, reads, int(width)); err != nil {
			t.Fatal(err)
		}
		again, err := ReadFASTA(&buf)
		if err != nil {
			t.Fatalf("re-read of written reads: %v\n%q", err, buf.Bytes())
		}
		if !sameReads(again, reads) {
			t.Fatalf("round trip changed the reads:\n got %q\nwant %q", again, reads)
		}
	})
}
