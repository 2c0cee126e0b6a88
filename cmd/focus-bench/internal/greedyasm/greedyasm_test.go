package greedyasm

import (
	"bytes"
	"math/rand"
	"testing"

	"focus/internal/assembly"
	"focus/internal/dna"
	"focus/internal/eval"
)

func randGenome(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	g := make([]byte, n)
	for i := range g {
		g[i] = "ACGT"[rng.Intn(4)]
	}
	return g
}

func tilingReads(genome []byte, l, s int) []dna.Read {
	var reads []dna.Read
	for pos := 0; pos+l <= len(genome); pos += s {
		reads = append(reads, dna.Read{ID: "t", Seq: append([]byte(nil), genome[pos:pos+l]...)})
	}
	return reads
}

func TestGreedyReconstructsCleanGenome(t *testing.T) {
	genome := randGenome(1, 4000)
	reads := tilingReads(genome, 100, 40)
	contigs, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 1 {
		t.Fatalf("got %d contigs, want 1", len(contigs))
	}
	// Tiling at stride 40 ends with the read at 3880, so the recoverable
	// span is genome[:3980].
	if !bytes.Equal(contigs[0], genome[:3980]) {
		t.Errorf("contig (%d bp) != tiled genome span (3980 bp)", len(contigs[0]))
	}
}

func TestGreedyDiscardsContainedReads(t *testing.T) {
	genome := randGenome(2, 1500)
	reads := tilingReads(genome, 100, 40)
	// Add reads fully contained in others.
	reads = append(reads, dna.Read{ID: "c1", Seq: append([]byte(nil), genome[210:290]...)})
	reads = append(reads, dna.Read{ID: "c2", Seq: append([]byte(nil), genome[615:685]...)})
	contigs, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 1 || !bytes.Equal(contigs[0], genome) {
		t.Fatalf("contigs = %d (max %d bp)", len(contigs), len(contigs[0]))
	}
}

func TestGreedyHandlesGaps(t *testing.T) {
	genome := randGenome(3, 4000)
	// Two separately tiled regions: two contigs expected.
	reads := append(tilingReads(genome[:1800], 100, 40), tilingReads(genome[2200:], 100, 40)...)
	contigs, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 2 {
		t.Fatalf("got %d contigs, want 2", len(contigs))
	}
}

func TestGreedyNoCycles(t *testing.T) {
	// A circular tiling (reads wrap around): greedy must terminate and
	// produce a linear contig, not loop.
	genome := randGenome(4, 1200)
	circ := append(append([]byte(nil), genome...), genome[:100]...)
	reads := tilingReads(circ, 100, 30)
	contigs, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := assembly.ComputeStats(contigs)
	if st.MaxContig < len(genome) || st.MaxContig > len(circ)+100 {
		t.Errorf("max contig %d for circular genome %d", st.MaxContig, len(genome))
	}
}

func TestGreedyVsEvalOnNoisyReads(t *testing.T) {
	genome := randGenome(5, 6000)
	rng := rand.New(rand.NewSource(6))
	var reads []dna.Read
	for pos := 0; pos+100 <= len(genome); pos += 12 {
		seq := append([]byte(nil), genome[pos:pos+100]...)
		for j := range seq {
			if rng.Float64() < 0.005 {
				seq[j] = "ACGT"[rng.Intn(4)]
			}
		}
		reads = append(reads, dna.Read{ID: "n", Seq: seq})
	}
	contigs, err := Assemble(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Evaluate(contigs, []eval.Reference{{Name: "g", Seq: genome}}, eval.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GenomeFraction < 0.9 {
		t.Errorf("genome fraction %.3f (%s)", rep.GenomeFraction, rep.Summary())
	}
}
