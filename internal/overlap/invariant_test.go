package overlap

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"focus/internal/dna"
	"focus/internal/preprocess"
	"focus/internal/simulate"
)

// TestOverlapSubsetInvariant: the overlap stage is a function of the reads
// and the configuration alone. On the D1–D3 analogues, strand-paired as
// the pipeline feeds them, the records are SHA-identical at 1, 2, 3, 4, 7
// and 16 subsets on the mirror path at local widths 1, 2, 4 and 8 (with
// GOMAXPROCS raised so that each width is honoured: every index is built
// in that many chunks, and each reference's queries are cut into four
// chunks per worker) and on the all-queries core.
func TestOverlapSubsetInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cfg := testConfig()
	for d := 1; d <= 3; d++ {
		t.Run(fmt.Sprintf("D%d", d), func(t *testing.T) {
			reads := paperReads(t, d, true)
			want := ""
			for _, subsets := range []int{1, 2, 3, 4, 7, 16} {
				var widths [4][]Record
				for i, w := range []int{1, 2, 4, 8} {
					var err error
					if widths[i], _, err = findOverlaps(nil, reads, subsets, cfg, w, false, true); err != nil {
						t.Fatal(err)
					}
				}
				all, _, err := findOverlaps(nil, reads, subsets, cfg, 0, false, false)
				if err != nil {
					t.Fatal(err)
				}
				if want == "" {
					if len(widths[0]) == 0 {
						t.Fatal("no records at one subset")
					}
					want = recordDigest(widths[0])
				}
				for _, path := range []struct {
					name string
					recs []Record
				}{
					{"width 1", widths[0]}, {"width 2", widths[1]}, {"width 4", widths[2]}, {"width 8", widths[3]},
					{"all queries", all},
				} {
					if got := recordDigest(path.recs); got != want {
						t.Fatalf("subsets=%d %s: %d records, digest %s, want the one-subset %s", subsets, path.name, len(path.recs), got, want)
					}
				}
			}
		})
	}
}

// TestSubsetCountCapped: a subset count past the read count (the
// strand-pair count on a paired read set) is capped there. At four times
// that count the records are the four-subset ones, and the stage
// allocates no more than at the cap itself, give or take a quarter: no
// empty subset is indexed or queried.
func TestSubsetCountCapped(t *testing.T) {
	paired := pairedReadSet(71)
	var single []dna.Read
	for i := 0; i < len(paired); i += 2 {
		single = append(single, paired[i])
	}
	cfg := testConfig()
	for _, tc := range []struct {
		name  string
		reads []dna.Read
		units int
	}{
		{"paired", paired, len(paired) / 2},
		{"single", single, len(single)},
	} {
		want, err := FindOverlaps(tc.reads, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no records", tc.name)
		}
		var alloc [2]uint64
		for i, subsets := range []int{tc.units, 4 * tc.units} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			got, err := FindOverlaps(tc.reads, subsets, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s subsets=%d: %d records, four subsets %d; %v", tc.name, subsets, len(got), len(want), firstDiff(got, want))
			}
			alloc[i] = after.TotalAlloc - before.TotalAlloc
		}
		t.Logf("%s: %d reads, %d bytes allocated at %d subsets, %d at %d", tc.name, len(tc.reads), alloc[0], tc.units, alloc[1], 4*tc.units)
		if alloc[1] > alloc[0]+alloc[0]/4 {
			t.Fatalf("%s: %d subsets allocated %d bytes, %d subsets %d: empty subsets were run", tc.name, 4*tc.units, alloc[1], tc.units, alloc[0])
		}
	}
}

// FuzzSubsetInvariant: a small read set the fuzzer draws — reads cut from
// a random genome with a tandem repeat, substitutions among them, strand
// paired or not — gives the same records at every subset count from 1 to
// 8, under a repeat mask the repeat trips.
func FuzzSubsetInvariant(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), true)
	f.Add(int64(2), uint8(7), uint8(2), false)
	f.Add(int64(3), uint8(8), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, s1, maxOccur uint8, paired bool) {
		rng := rand.New(rand.NewSource(seed))
		genome := randGenome(seed, 600+rng.Intn(600))
		unit := randGenome(seed+1, 1+rng.Intn(12))
		for i := 200; i < 200+rng.Intn(200); i++ {
			genome[i] = unit[i%len(unit)]
		}
		var reads []dna.Read
		for pos := 0; pos+100 < len(genome); pos += 10 + rng.Intn(30) {
			seq := slices.Clone(genome[pos : pos+60+rng.Intn(41)])
			for range rng.Intn(3) {
				seq[rng.Intn(len(seq))] = "ACGTN"[rng.Intn(5)]
			}
			reads = append(reads, dna.Read{Seq: seq})
			if paired {
				reads = append(reads, dna.Read{Seq: dna.ReverseComplement(seq)})
			}
		}
		cfg := testConfig()
		cfg.K = 12
		cfg.MaxOccur = int(maxOccur % 16)
		want, err := FindOverlaps(reads, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		subsets := 2 + int(s1%7)
		got, err := FindOverlaps(reads, subsets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("subsets=%d: %d records, one subset %d; %v", subsets, len(got), len(want), firstDiff(got, want))
		}
	})
}

// paperReads is the analogue of paper data set d at scale 0.1 as the
// pipeline feeds the overlap stage: simulated reads through preprocess.Run,
// with AddReverse when paired, so that read 2i+1 is the reverse complement
// of read 2i.
func paperReads(t *testing.T, d int, paired bool) []dna.Read {
	t.Helper()
	spec, err := simulate.PaperDataSet(d, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(d, 8)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	reads, _, err := preprocess.Run(rs.Reads, preprocess.Config{Window: 10, Step: 1, MinQuality: 12, MinLen: 40, AddReverse: paired})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}
