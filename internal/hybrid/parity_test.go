package hybrid

import (
	"testing"

	"focus/internal/coarsen"
	"focus/internal/dna"
	"focus/internal/overlap"
)

// pipelineInput prepares a pipeline input (reads, records, multilevel
// set) and returns a rebuild closure for equivalence tests and
// benchmarks.
func pipelineInput(tb testing.TB, seed int64, genomeLen, step int) ([]dna.Read, []overlap.Record, *Hybrid, func(workers int) *Hybrid) {
	tb.Helper()
	genome := randGenome(seed, genomeLen)
	reads := tilingReads(genome, 100, step)
	cfg := overlap.DefaultConfig()
	recs, err := overlap.FindOverlaps(reads, 2, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g0, err := overlap.BuildGraph(len(reads), recs)
	if err != nil {
		tb.Fatal(err)
	}
	copt := coarsen.DefaultOptions()
	copt.MinNodes = 4
	copt.Seed = seed
	mset := coarsen.Multilevel(g0, copt)
	build := func(workers int) *Hybrid {
		h, _, err := build(nil, mset, reads, recs, DefaultConfig(), workers)
		if err != nil {
			tb.Fatal(err)
		}
		return h
	}
	return reads, recs, build(1), build
}

// TestBuildWorkerEquivalence: hybrid construction is byte-identical at
// worker counts 1, 2 and 8 — node list, members, offsets, contigs, RepOf,
// the hybrid graph and its level set.
func TestBuildWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		_, _, ref, build := pipelineInput(t, 500+seed, 2500, 25)
		for _, w := range []int{2, 8} {
			got := build(w)
			if len(got.Nodes) != len(ref.Nodes) {
				t.Fatalf("seed %d workers %d: %d nodes vs %d", seed, w, len(got.Nodes), len(ref.Nodes))
			}
			for i := range ref.Nodes {
				rn, gn := ref.Nodes[i], got.Nodes[i]
				if string(rn.Contig) != string(gn.Contig) {
					t.Fatalf("seed %d workers %d: contig %d diverged", seed, w, i)
				}
				if len(rn.Members) != len(gn.Members) {
					t.Fatalf("seed %d workers %d: node %d member count", seed, w, i)
				}
				for j := range rn.Members {
					if rn.Members[j] != gn.Members[j] || rn.Offsets[j] != gn.Offsets[j] {
						t.Fatalf("seed %d workers %d: node %d member %d diverged", seed, w, i, j)
					}
				}
			}
			for v := range ref.RepOf {
				if got.RepOf[v] != ref.RepOf[v] {
					t.Fatalf("seed %d workers %d: RepOf[%d] diverged", seed, w, v)
				}
			}
			if !got.G.Equal(ref.G) {
				t.Fatalf("seed %d workers %d: hybrid graph diverged", seed, w)
			}
			if len(got.Set.Levels) != len(ref.Set.Levels) {
				t.Fatalf("seed %d workers %d: level counts diverged", seed, w)
			}
			for i := range ref.Set.Levels {
				if !got.Set.Levels[i].Equal(ref.Set.Levels[i]) {
					t.Fatalf("seed %d workers %d: hybrid set level %d diverged", seed, w, i)
				}
			}
		}
	}
}

// BenchmarkHybridBuild measures one hybrid build on a clean tiling and on
// the genome_ksweep-shaped input (one 80 kb genome at 30x), serial and on
// the governor's pool.
func BenchmarkHybridBuild(b *testing.B) {
	_, _, _, tiling := pipelineInput(b, 77, 6000, 12)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tiling(1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tiling(0)
		}
	})
	in := genomeInput(b)
	b.Run("genome_80kb_30x", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := build(nil, in.mset, in.reads, in.recs, DefaultConfig(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("genome_80kb_30x_topdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := buildTopDown(nil, in.mset, in.reads, in.recs, DefaultConfig(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
