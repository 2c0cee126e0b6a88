package preprocess

import (
	"strings"
	"testing"
	"testing/quick"

	"focus/internal/dna"
)

func qual(phreds ...int) []byte {
	q := make([]byte, len(phreds))
	for i, p := range phreds {
		q[i] = byte(33 + p)
	}
	return q
}

func TestQualityTrimKeepsHighQualityRead(t *testing.T) {
	r := dna.Read{Seq: []byte("ACGTACGTAC"), Qual: qual(40, 40, 40, 40, 40, 40, 40, 40, 40, 40)}
	keep, ok := QualityTrim(r, 4, 1, 20)
	if !ok || keep != 10 {
		t.Errorf("keep=%d ok=%v, want 10 true", keep, ok)
	}
}

func TestQualityTrimCutsLowTail(t *testing.T) {
	// Last 4 bases are junk (q=2); first window from the 3' end fails,
	// stepping left finds a window ending at 6 with high mean.
	r := dna.Read{
		Seq:  []byte("ACGTACGTAC"),
		Qual: qual(40, 40, 40, 40, 40, 40, 2, 2, 2, 2),
	}
	keep, ok := QualityTrim(r, 3, 1, 20)
	if !ok {
		t.Fatal("read dropped")
	}
	// Window [4,7) is the first (from the 3' end) whose mean exceeds 20;
	// the read is cut at its right edge.
	if keep != 7 {
		t.Errorf("keep = %d, want 7", keep)
	}
}

func TestQualityTrimDropsAllBadRead(t *testing.T) {
	r := dna.Read{Seq: []byte("ACGTAC"), Qual: qual(2, 2, 2, 2, 2, 2)}
	if _, ok := QualityTrim(r, 3, 1, 20); ok {
		t.Error("all-bad read kept")
	}
}

func TestQualityTrimStep(t *testing.T) {
	// With step 2 the window right edges visited are 10, 8, 6...
	r := dna.Read{
		Seq:  []byte("ACGTACGTAC"),
		Qual: qual(40, 40, 40, 40, 40, 40, 40, 2, 2, 2),
	}
	keep, ok := QualityTrim(r, 2, 2, 25)
	if !ok || keep != 6 {
		t.Errorf("keep=%d ok=%v, want 6 true", keep, ok)
	}
}

func TestQualityTrimNoQualities(t *testing.T) {
	r := dna.Read{Seq: []byte("ACGT")}
	keep, ok := QualityTrim(r, 2, 1, 20)
	if !ok || keep != 4 {
		t.Errorf("fasta read should pass through, got keep=%d ok=%v", keep, ok)
	}
}

func TestQualityTrimShortRead(t *testing.T) {
	r := dna.Read{Seq: []byte("AC"), Qual: qual(2, 2)}
	keep, ok := QualityTrim(r, 5, 1, 20)
	if !ok || keep != 2 {
		t.Errorf("short read keep=%d ok=%v, want unchanged", keep, ok)
	}
}

func TestRunFixedTrimming(t *testing.T) {
	reads := []dna.Read{{ID: "a", Seq: []byte("NNACGTACGTNN"), Qual: qual(40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40)}}
	out, st, err := Run(reads, Config{Trim5: 2, Trim3: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || string(out[0].Seq) != "ACGTACGT" {
		t.Fatalf("out = %+v", out)
	}
	if len(out[0].Qual) != 8 {
		t.Errorf("qual len = %d", len(out[0].Qual))
	}
	if st.BasesTrimmed != 4 || st.Kept != 1 || st.Output != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunDropsOvertrimmed(t *testing.T) {
	reads := []dna.Read{{ID: "a", Seq: []byte("ACGT")}}
	out, st, err := Run(reads, Config{Trim5: 3, Trim3: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.Dropped != 1 {
		t.Errorf("out=%v stats=%+v", out, st)
	}
}

func TestRunMinLen(t *testing.T) {
	reads := []dna.Read{
		{ID: "short", Seq: []byte("ACGT")},
		{ID: "long", Seq: []byte("ACGTACGTACGT")},
	}
	out, st, err := Run(reads, Config{MinLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "long" {
		t.Fatalf("out = %+v", out)
	}
	if st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunAddReverse(t *testing.T) {
	reads := []dna.Read{{ID: "a", Seq: []byte("AACG"), Qual: qual(10, 20, 30, 40)}}
	out, _, err := Run(reads, Config{AddReverse: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d reads", len(out))
	}
	rc := out[1]
	if rc.ID != "a"+RCSuffix {
		t.Errorf("rc id = %q", rc.ID)
	}
	if string(rc.Seq) != "CGTT" {
		t.Errorf("rc seq = %q", rc.Seq)
	}
	// Qualities must be reversed alongside the bases.
	if rc.PhredQuality(0) != 40 || rc.PhredQuality(3) != 10 {
		t.Errorf("rc qual = %v", rc.Qual)
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	reads := []dna.Read{{ID: "a", Seq: []byte("ACGTACGT"), Qual: qual(40, 40, 40, 40, 40, 40, 40, 40)}}
	orig := string(reads[0].Seq)
	out, _, err := Run(reads, Config{Trim5: 1, AddReverse: true})
	if err != nil {
		t.Fatal(err)
	}
	out[0].Seq[0] = 'N'
	if string(reads[0].Seq) != orig {
		t.Error("input mutated")
	}
}

func TestRunNegativeTrim(t *testing.T) {
	if _, _, err := Run(nil, Config{Trim5: -1}); err == nil {
		t.Error("negative trim accepted")
	}
}

func TestRunEndToEndWithAdapterAndBadTail(t *testing.T) {
	// 5 adapter bases, 20 good bases, 5 junk bases.
	seq := "AGATC" + strings.Repeat("ACGT", 5) + "TTTTT"
	q := make([]int, 0, 30)
	for i := 0; i < 25; i++ {
		q = append(q, 38)
	}
	for i := 0; i < 5; i++ {
		q = append(q, 2)
	}
	reads := []dna.Read{{ID: "x", Seq: []byte(seq), Qual: qual(q...)}}
	out, st, err := Run(reads, Config{Trim5: 5, Window: 5, Step: 1, MinQuality: 35, MinLen: 10, AddReverse: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d reads, want 2 (fwd+rc)", len(out))
	}
	if string(out[0].Seq) != strings.Repeat("ACGT", 5) {
		t.Errorf("trimmed seq = %q", out[0].Seq)
	}
	if st.BasesTrimmed != 10 {
		t.Errorf("BasesTrimmed = %d, want 10", st.BasesTrimmed)
	}
}

// TestRunQuick: invariants over random reads and configurations.
func TestRunQuick(t *testing.T) {
	f := func(raw [][]byte, trim5raw, trim3raw, windowRaw, minQraw uint8, addRC bool) bool {
		cfg := Config{
			Trim5:      int(trim5raw) % 8,
			Trim3:      int(trim3raw) % 8,
			Window:     int(windowRaw) % 12,
			Step:       1,
			MinQuality: float64(minQraw % 40),
			MinLen:     5,
			AddReverse: addRC,
		}
		var reads []dna.Read
		for i, r := range raw {
			n := len(r)
			if n == 0 {
				continue
			}
			seq := make([]byte, n)
			quals := make([]byte, n)
			for j, b := range r {
				seq[j] = "ACGT"[b&3]
				quals[j] = 33 + b%42
			}
			reads = append(reads, dna.Read{ID: string(rune('a' + i%26)), Seq: seq, Qual: quals})
		}
		out, st, err := Run(reads, cfg)
		if err != nil {
			return false
		}
		if st.Input != len(reads) || st.Output != len(out) {
			return false
		}
		if addRC && st.Output != 2*st.Kept {
			return false
		}
		if !addRC && st.Output != st.Kept {
			return false
		}
		for _, r := range out {
			if r.Len() < cfg.MinLen {
				return false
			}
			if dna.ValidateSeq(r.Seq) != nil {
				return false
			}
			if r.Qual != nil && len(r.Qual) != r.Len() {
				return false
			}
		}
		// RC pairs: out[2i+1] is the reverse complement of out[2i].
		if addRC {
			for i := 0; i+1 < len(out); i += 2 {
				rc := dna.ReverseComplement(out[i].Seq)
				if string(rc) != string(out[i+1].Seq) {
					return false
				}
				if out[i+1].ID != out[i].ID+RCSuffix {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRunValidatesInput: Run is the ingestion gate for programmatic input —
// malformed reads fail loudly with the read index and ID, before any
// trimming can mask them.
func TestRunValidatesInput(t *testing.T) {
	good := dna.Read{ID: "ok", Seq: []byte("ACGTACGT"), Qual: qual(30, 30, 30, 30, 30, 30, 30, 30)}
	cases := []struct {
		name string
		bad  dna.Read
		want []string
	}{
		{"invalid base", dna.Read{ID: "badbase", Seq: []byte("ACXT")}, []string{"read 1", `"badbase"`, "invalid base"}},
		{"lowercase base", dna.Read{ID: "lower", Seq: []byte("acgt")}, []string{"read 1", `"lower"`, "invalid base"}},
		{"qual mismatch", dna.Read{ID: "shortq", Seq: []byte("ACGT"), Qual: qual(30, 30)}, []string{"read 1", `"shortq"`, "quality length 2 != sequence length 4"}},
	}
	for _, tc := range cases {
		_, _, err := Run([]dna.Read{good, tc.bad}, Config{})
		if err == nil {
			t.Errorf("%s: Run accepted malformed read", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
	// The gate passes clean input through untouched.
	out, st, err := Run([]dna.Read{good}, Config{})
	if err != nil || len(out) != 1 || st.Kept != 1 {
		t.Fatalf("clean input: out=%d stats=%+v err=%v", len(out), st, err)
	}
}
