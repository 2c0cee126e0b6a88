package hybrid

import (
	"testing"

	"focus/internal/coarsen"
	"focus/internal/graph"
	"focus/internal/overlap"
)

// TestHybridInvariantsAcrossSeeds checks structural invariants of the
// hybrid construction over randomized genomes: RepOf partitions the
// reads, every representative's members agree with RepOf, hybrid set
// levels shrink monotonically in node count and conserve read weight,
// and offsets within each cluster start at zero.
func TestHybridInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		genome := randGenome(300+seed, 2000+int(seed)*700)
		// Insert a repeat for the later seeds to stress the anti-chimera
		// rejection paths.
		if seed >= 2 {
			copy(genome[len(genome)-400:], genome[100:500])
		}
		reads := tilingReads(genome, 100, 20+int(seed)*7)
		cfg := overlap.DefaultConfig()
		recs, err := overlap.FindOverlaps(reads, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g0, err := overlap.BuildGraph(len(reads), recs)
		if err != nil {
			t.Fatal(err)
		}
		copt := coarsen.DefaultOptions()
		copt.MinNodes = 4
		copt.Seed = seed
		mset := coarsen.Multilevel(g0, copt)
		h, err := Build(mset, reads, recs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}

		// RepOf is a partition consistent with Nodes.
		count := 0
		for ri, node := range h.Nodes {
			if len(node.Members) == 0 {
				t.Fatalf("seed %d: empty representative %d", seed, ri)
			}
			for mi, m := range node.Members {
				if h.RepOf[m] != ri {
					t.Fatalf("seed %d: RepOf[%d]=%d, member of %d", seed, m, h.RepOf[m], ri)
				}
				if node.Offsets[mi] < 0 {
					t.Fatalf("seed %d: negative offset", seed)
				}
				end := node.Offsets[mi] + len(reads[m].Seq)
				if end > len(node.Contig) {
					t.Fatalf("seed %d: member %d extends past contig (%d > %d)", seed, m, end, len(node.Contig))
				}
			}
			// Some member starts at offset 0 (normalized layout).
			min := node.Offsets[0]
			for _, o := range node.Offsets {
				if o < min {
					min = o
				}
			}
			if min != 0 {
				t.Fatalf("seed %d: cluster %d min offset %d", seed, ri, min)
			}
			count += len(node.Members)
		}
		if count != len(reads) {
			t.Fatalf("seed %d: clusters cover %d of %d reads", seed, count, len(reads))
		}

		// Hybrid set structure.
		if err := h.Set.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 1; i < len(h.Set.Levels); i++ {
			if h.Set.Levels[i].NumNodes() > h.Set.Levels[i-1].NumNodes() {
				t.Fatalf("seed %d: hybrid level %d grew", seed, i)
			}
		}
		for i, lvl := range h.Set.Levels {
			if lvl.TotalNodeWeight() != int64(len(reads)) {
				t.Fatalf("seed %d: level %d weight %d != %d reads", seed, i, lvl.TotalNodeWeight(), len(reads))
			}
		}
	}
}

// TestHybridSetIsContractedG0 holds the hybrid set to its definition, not
// to any construction: level i is G0 contracted by RepOf followed by the
// up-maps Set.Up[0..i-1], node weights and edge weights summed.
func TestHybridSetIsContractedG0(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		genome := randGenome(800+seed, 2500+int(seed)*500)
		if seed%2 == 1 {
			copy(genome[len(genome)-400:], genome[200:600]) // an exact repeat
		}
		reads := tilingReads(genome, 100, 12+int(seed)*5)
		recs, err := overlap.FindOverlaps(reads, 2, overlap.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		g0, err := overlap.BuildGraph(len(reads), recs)
		if err != nil {
			t.Fatal(err)
		}
		copt := coarsen.DefaultOptions()
		copt.MinNodes = 4
		copt.Seed = seed
		h, err := Build(coarsen.Multilevel(g0, copt), reads, recs, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Set.Levels) < 3 {
			t.Fatalf("seed %d: %d hybrid set levels, too few to chain", seed, len(h.Set.Levels))
		}
		group := append([]int(nil), h.RepOf...)
		for i, lvl := range h.Set.Levels {
			if i > 0 {
				for v, x := range group {
					group[v] = h.Set.Up[i-1][x]
				}
			}
			want, err := graph.ContractCtx(nil, g0, group, lvl.NumNodes(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if !lvl.Equal(want) {
				t.Fatalf("seed %d: hybrid set level %d is not G0 contracted by its up-map chain", seed, i)
			}
		}
	}
}
