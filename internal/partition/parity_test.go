package partition

import (
	"math/rand"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/graph"
)

// TestPartitionSetProcsEquivalence: for a fixed seed the full multilevel
// partitioning is byte-identical at Procs 1, 2 and 8 (which also varies
// the derived intra-task width split).
func TestPartitionSetProcsEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := ringOfClusters(16, 12, 20+seed)
		set := coarsen.Multilevel(g, coarsen.DefaultOptions())
		opt := DefaultOptions(8)
		opt.Seed = seed
		opt.Procs = 1
		ref, err := PartitionSet(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 8} {
			opt.Procs = procs
			got, err := PartitionSet(set, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.LevelLabels {
				for v := range ref.LevelLabels[i] {
					if got.LevelLabels[i][v] != ref.LevelLabels[i][v] {
						t.Fatalf("seed %d procs %d: level %d node %d diverged", seed, procs, i, v)
					}
				}
			}
		}
	}
}

// TestKWayRefineWorkerEquivalence: the boundary-scan parallelism never
// changes the refinement result.
func TestKWayRefineWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := ringOfClusters(8, 10, 30+seed)
		k := 4
		base := make([]int32, g.NumNodes())
		rng := rand.New(rand.NewSource(seed))
		for v := range base {
			base[v] = int32(rng.Intn(k))
		}
		opt := DefaultOptions(k)
		ref := append([]int32(nil), base...)
		refGain := kWayRefine(g, ref, k, opt, 1)
		for _, w := range []int{2, 8} {
			got := append([]int32(nil), base...)
			gotGain := kWayRefine(g, got, k, opt, w)
			if gotGain != refGain {
				t.Fatalf("seed %d workers %d: gain %d vs %d", seed, w, gotGain, refGain)
			}
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("seed %d workers %d: label[%d] diverged", seed, w, v)
				}
			}
		}
	}
}

// TestKLBisectWorkerEquivalence: the sharded gain initialization never
// changes a bisection.
func TestKLBisectWorkerEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := ringOfClusters(6, 10, 40+seed)
		base := make([]int32, g.NumNodes())
		rng := rand.New(rand.NewSource(seed))
		for v := range base {
			base[v] = int32(rng.Intn(2))
		}
		base[0], base[1] = 0, 1
		opt := DefaultOptions(2)
		ref := append([]int32(nil), base...)
		refGain := klBisect(g, ref, allNodes(g), 0, 1, opt, newKLScratch(g.NumNodes(), 1))
		for _, w := range []int{2, 8} {
			got := append([]int32(nil), base...)
			gotGain := klBisect(g, got, allNodes(g), 0, 1, opt, newKLScratch(g.NumNodes(), w))
			if gotGain != refGain {
				t.Fatalf("seed %d workers %d: gain %d vs %d", seed, w, gotGain, refGain)
			}
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("seed %d workers %d: label[%d] diverged", seed, w, v)
				}
			}
		}
	}
}

// BenchmarkBisect measures one full KL bisection (gain init + passes)
// on a clustered graph, serial vs sharded gain initialization, and the
// full partitioner on a hybrid set.
func BenchmarkBisect(b *testing.B) {
	g := ringOfClusters(64, 64, 50)
	n := g.NumNodes()
	base := make([]int32, n)
	rng := rand.New(rand.NewSource(1))
	for v := range base {
		base[v] = int32(rng.Intn(2))
	}
	opt := DefaultOptions(2)
	labels := make([]int32, n)
	universe := allNodes(g)
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		sc := newKLScratch(n, workers)
		for i := 0; i < b.N; i++ {
			copy(labels, base)
			_ = klBisect(g, labels, universe, 0, 1, opt, sc)
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 8) })

	// The whole partitioner on the genome_ksweep-shaped hybrid set (one
	// 80 kb genome at 30x), at the sweep's k = 16, with the walking pair
	// selection and with the pop-and-push-back oracle.
	set := genomeHybridSet(b)
	for _, sel := range []struct {
		name string
		f    func(*graph.Graph, *klScratch) (int, int, int64, bool)
	}{{"genome_80kb_30x_k16", selectSwap}, {"genome_80kb_30x_k16_pop", selectSwapPop}} {
		b.Run(sel.name, func(b *testing.B) {
			swapSelector = sel.f
			defer func() { swapSelector = selectSwap }()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PartitionSet(set, DefaultOptions(16)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
