package overlap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/align"
	"focus/internal/dna"
)

// pairedReadSet builds a strand-paired read set, read 2i+1 the reverse
// complement of read 2i, over a genome with a period-8 tandem repeat, with
// the cases the mirror rule must tell apart: lengths on and off the Step
// grid, reads with an N, short reads inside the repeat (a containment
// there collects equal votes on several diagonals, so the two modal
// diagonals differ), substitutions and indels, which send some verdicts to
// a DP kernel, and the kernelPairs. The pair count is odd, so i·n/S is odd for
// some i at S = 3 and 5.
func pairedReadSet(seed int64) []dna.Read {
	rng := rand.New(rand.NewSource(seed))
	genome := randGenome(seed, 2400)
	unit := randGenome(seed+1, 8)
	for i := 900; i < 1200; i++ {
		genome[i] = unit[i%8]
	}
	var reads []dna.Read
	add := func(seq []byte) {
		reads = append(reads, dna.Read{ID: "f", Seq: seq}, dna.Read{ID: "r", Seq: dna.ReverseComplement(seq)})
	}
	for pos := 0; pos+110 < len(genome); pos += 13 + rng.Intn(20) {
		seq := append([]byte(nil), genome[pos:pos+60+rng.Intn(51)]...)
		switch rng.Intn(8) {
		case 0:
			seq[rng.Intn(len(seq))] = 'N'
		case 1, 2:
			seq = mutateRead(rng, seq)
		}
		add(seq)
	}
	for _, pos := range []int{930, 1010, 1090} { // inside the repeat
		add(append([]byte(nil), genome[pos:pos+50+rng.Intn(8)]...))
	}
	for _, p := range kernelPairs {
		add([]byte(p[0]))
		add([]byte(p[1]))
	}
	if len(reads)%4 == 0 {
		reads = reads[:len(reads)-2]
	}
	return reads
}

// kernelPairs are read pairs, B a noisy copy of A, whose containment is
// accepted by a DP kernel on the forward strand and rejected on the
// reverse one (found by a search over random pairs; the traceback's
// tie-breaks differ between the strands). A mirror derived from the
// forward verdict would add a record the all-queries core does not have.
var kernelPairs = [][2]string{
	{"GATAATGGCGCGGGATTGTTGAGAGTGGGTCAGGGAAAAATCTATTAACATGCTCAACGATCATTGAG", "GATAATGGGCGGATTGTGAGAGTGGGTCAGGGAAAAATCTATTAACATGCTCAACGATCATTGAG"},
	{"TTGAAAGAACAGTTATGTCTGCGCGTTGCAAACCGTGTGACCTCCCTTGCAAGCAAGAGGTTGG", "TTGAAAGACGTTATGTCTGCGCGTTGCAACCGTGTGACCTCCCTTGCAAGCAAGAGGTTGG"},
}

// TestStrandMirrorKernelPairs: each kernel pair, with its reverse
// complements, yields the forward containment and no mirror of it, from
// the all-queries core and from the mirror path alike.
func TestStrandMirrorKernelPairs(t *testing.T) {
	for _, p := range kernelPairs {
		a, b := []byte(p[0]), []byte(p[1])
		reads := []dna.Read{{Seq: a}, {Seq: dna.ReverseComplement(a)}, {Seq: b}, {Seq: dna.ReverseComplement(b)}}
		want, _, err := findOverlaps(nil, reads, 1, testConfig(), 1, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 || want[0].A != 0 || want[0].B != 2 || want[0].Kind != align.KindAContainsB {
			t.Fatalf("%s: all queries give %+v, want the forward containment alone", p[0], want)
		}
		if got, _, _ := findOverlaps(nil, reads, 1, testConfig(), 1, false, true); !slices.Equal(got, want) {
			t.Fatalf("%s: mirror path %+v, all queries %+v", p[0], got, want)
		}
	}
}

// mutateRead applies a few substitutions, an insertion and a deletion.
func mutateRead(rng *rand.Rand, seq []byte) []byte {
	for range 3 {
		seq[rng.Intn(len(seq))] = "ACGT"[rng.Intn(4)]
	}
	i := rng.Intn(len(seq))
	seq = slices.Insert(seq, i, "ACGT"[rng.Intn(4)])
	i = rng.Intn(len(seq))
	return slices.Delete(seq, i, i+1)
}

// TestStrandMirrorMatchesAllQueries holds the mirror path to the
// all-queries core, byte for byte, at workers 1/2/8: the records and the
// candidate count, on strand-paired read sets at 1, 3 and 5 subsets (odd
// i·n/S bounds at 3 and 5), k = 16 and 9, Step 4 and 3, and with a repeat
// mask that bites.
func TestStrandMirrorMatchesAllQueries(t *testing.T) {
	for seed := int64(70); seed < 74; seed++ {
		reads := pairedReadSet(seed)
		seqs := make([][]byte, len(reads))
		offGrid, withN := 0, 0
		for i, r := range reads {
			seqs[i] = r.Seq
			if i%2 == 0 && !onGrid(r.Seq, testConfig()) {
				offGrid++
			}
			if i%2 == 0 && bytes.IndexByte(r.Seq, 'N') >= 0 {
				withN++
			}
		}
		if !strandPaired(seqs) || offGrid == 0 || offGrid == len(reads)/2 || withN == 0 {
			t.Fatalf("seed=%d: paired %v, %d of %d queries off the grid, %d with N", seed, strandPaired(seqs), offGrid, len(reads)/2, withN)
		}
		for _, mut := range []func(*Config){
			func(*Config) {},
			func(c *Config) { c.K = 9 },
			func(c *Config) { c.Step = 3 },
			func(c *Config) { c.MaxOccur = 4 },
		} {
			cfg := testConfig()
			mut(&cfg)
			for _, subsets := range []int{1, 3, 5} {
				want, _, err := findOverlaps(nil, reads, subsets, cfg, 1, false, false)
				if err != nil {
					t.Fatal(err)
				}
				_, wantCands, _ := findOverlaps(nil, reads, subsets, cfg, 1, true, false)
				if len(want) == 0 || wantCands == 0 {
					t.Fatalf("seed=%d subsets=%d: %d records of %d candidates", seed, subsets, len(want), wantCands)
				}
				for _, workers := range []int{1, 2, 8} {
					got, _, err := findOverlaps(nil, reads, subsets, cfg, workers, false, true)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed=%d cfg=%+v subsets=%d workers=%d: mirror path %d records, all queries %d; first difference %v",
							seed, cfg, subsets, workers, len(got), len(want), firstDiff(got, want))
					}
					if _, n, _ := findOverlaps(nil, reads, subsets, cfg, workers, true, true); n != wantCands {
						t.Fatalf("seed=%d subsets=%d workers=%d: %d candidates, all queries %d", seed, subsets, workers, n, wantCands)
					}
				}
			}
		}
	}
}

// firstDiff describes the first record two lists disagree on.
func firstDiff(got, want []Record) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return "one list is a prefix of the other"
}

// TestSplitSubsetsPairBoundaries: a strand-paired read set is split on
// pair boundaries, 2·⌊i·(n/2)/S⌋, with every subset marked paired; any
// other read set keeps the i·n/S bounds and no subset is paired.
func TestSplitSubsetsPairBoundaries(t *testing.T) {
	reads := pairedReadSet(70)
	n := len(reads)
	unpaired := slices.Clone(reads[:n-1]) // odd length
	swapped := slices.Clone(reads)
	swapped[2], swapped[3] = swapped[3], swapped[2] // pair 1 out of order is still paired
	broken := slices.Clone(reads)
	broken[5] = broken[7] // pair 2 no longer reverse complements
	for _, tc := range []struct {
		name   string
		reads  []dna.Read
		paired bool
	}{
		{"paired", reads, true},
		{"swapped", swapped, true},
		{"odd", unpaired, false},
		{"broken", broken, false},
	} {
		for _, subsets := range []int{1, 3, 5, 7} {
			lo := 0
			for s, sub := range splitSubsets(tc.reads, subsets) {
				hi := (s + 1) * len(tc.reads) / subsets
				if tc.paired {
					hi = 2 * ((s + 1) * (len(tc.reads) / 2) / subsets)
				}
				if sub.paired != tc.paired || len(sub.ids) != hi-lo || (len(sub.ids) > 0 && int(sub.ids[0]) != lo) {
					t.Fatalf("%s subsets=%d: subset %d is [%d, +%d) paired %v, want [%d, %d) paired %v",
						tc.name, subsets, s, sub.ids[0], len(sub.ids), sub.paired, lo, hi, tc.paired)
				}
				lo = hi
			}
		}
	}
}

// splitSubsets is splitSeqs over the reads' sequences, cut into its
// subsets (no more than splitSeqs' cap).
func splitSubsets(reads []dna.Read, subsets int) []readSet {
	all, bounds := splitSeqs(readSeqs(reads), subsets)
	subs := make([]readSet, len(bounds)-1)
	for s := range subs {
		subs[s] = all.span(int(bounds[s]), int(bounds[s+1]))
	}
	return subs
}
