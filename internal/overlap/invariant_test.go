package overlap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/dist"
	"focus/internal/dna"
)

// TestOverlapSubsetInvariant: the overlap stage is a function of the reads
// and the configuration alone. On the D1–D3 analogues, strand-paired as
// the pipeline feeds them, the records are SHA-identical at 1, 2, 3, 4, 7
// and 16 subsets on the mirror path, on the all-queries core and through
// FindOverlapsDistributedCtx on a pool of two.
func TestOverlapSubsetInvariant(t *testing.T) {
	cfg := testConfig()
	for d := 1; d <= 3; d++ {
		t.Run(fmt.Sprintf("D%d", d), func(t *testing.T) {
			reads := paperReads(t, d, true)
			want := ""
			for _, subsets := range []int{1, 2, 3, 4, 7, 16} {
				mirror, _, err := findOverlaps(nil, reads, subsets, cfg, 0, false, true)
				if err != nil {
					t.Fatal(err)
				}
				all, _, err := findOverlaps(nil, reads, subsets, cfg, 0, false, false)
				if err != nil {
					t.Fatal(err)
				}
				pool, err := dist.NewLocalPool(2, newAlignService)
				if err != nil {
					t.Fatal(err)
				}
				remote, err := FindOverlapsDistributedCtx(nil, pool, reads, subsets, cfg)
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				if want == "" {
					if len(mirror) == 0 {
						t.Fatal("no records at one subset")
					}
					want = recordDigest(mirror)
				}
				for _, path := range []struct {
					name string
					recs []Record
				}{{"mirror path", mirror}, {"all queries", all}, {"distributed", remote}} {
					if got := recordDigest(path.recs); got != want {
						t.Fatalf("subsets=%d %s: %d records, digest %s, want the one-subset %s", subsets, path.name, len(path.recs), got, want)
					}
				}
			}
		})
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
