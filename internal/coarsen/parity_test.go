package coarsen

import (
	"testing"

	"focus/internal/graph"
)

// TestHeavyEdgeMatchingParValidAndMaximal: the round-based matching is a
// valid matching and maximal (no live edge between two unmatched nodes).
func TestHeavyEdgeMatchingParValidAndMaximal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, 150, 600)
		match := matchPar(g, seed, 1)
		checkMatching(t, g, match)
		for v := 0; v < g.NumNodes(); v++ {
			if match[v] != -1 {
				continue
			}
			for _, a := range g.Adj(v) {
				if match[a.To] == -1 {
					t.Fatalf("seed %d: unmatched adjacent pair %d-%d", seed, v, a.To)
				}
			}
		}
	}
}

// TestHeavyEdgeMatchingParWorkerEquivalence: fixed seed, identical
// matching at worker counts 1, 2 and 8.
func TestHeavyEdgeMatchingParWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(100+seed, 200, 900)
		ref := matchPar(g, seed, 1)
		for _, w := range []int{2, 8} {
			got := matchPar(g, seed, w)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("seed %d workers %d: match[%d] = %d, serial %d", seed, w, v, got[v], ref[v])
				}
			}
		}
	}
}

// TestContractParWorkerEquivalence: contraction of a matching is
// byte-identical (graph and up-map) at worker counts 1, 2 and 8.
func TestContractParWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(200+seed, 200, 900)
		match := matchPar(g, seed, 1)
		refG, refUp := contractPar(g, match, 1)
		for _, w := range []int{2, 8} {
			gotG, gotUp := contractPar(g, match, w)
			if !gotG.Equal(refG) {
				t.Fatalf("seed %d workers %d: contracted graph diverged", seed, w)
			}
			for v := range refUp {
				if gotUp[v] != refUp[v] {
					t.Fatalf("seed %d workers %d: up[%d] diverged", seed, w, v)
				}
			}
		}
	}
}

// TestMultilevelWorkerEquivalence: the whole multilevel set is identical
// at pool widths 1, 2 and 8 for a fixed Options.Seed.
func TestMultilevelWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(300+seed, 400, 2000)
		opt := DefaultOptions()
		opt.Seed = seed
		ref, _ := multilevel(nil, g, opt, 1)
		for _, w := range []int{2, 8} {
			got, _ := multilevel(nil, g, opt, w)
			if len(got.Levels) != len(ref.Levels) {
				t.Fatalf("seed %d workers %d: %d levels vs %d", seed, w, len(got.Levels), len(ref.Levels))
			}
			for i := range ref.Levels {
				if !got.Levels[i].Equal(ref.Levels[i]) {
					t.Fatalf("seed %d workers %d: level %d diverged", seed, w, i)
				}
			}
			for i := range ref.Up {
				for v := range ref.Up[i] {
					if got.Up[i][v] != ref.Up[i][v] {
						t.Fatalf("seed %d workers %d: up-map %d diverged at %d", seed, w, i, v)
					}
				}
			}
		}
	}
}

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return randomGraph(42, 20000, 160000)
}

func BenchmarkHeavyEdgeMatching(b *testing.B) {
	g := benchGraph(b)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = matchPar(g, 1, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = matchPar(g, 1, 0)
		}
	})
}

func BenchmarkContract(b *testing.B) {
	g := benchGraph(b)
	match := matchPar(g, 1, 0)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = contractPar(g, match, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = contractPar(g, match, 0)
		}
	})
}
