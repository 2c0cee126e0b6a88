package focus

import (
	"testing"

	"focus/internal/partition"
	"focus/internal/simulate"
)

// TestPipelineRobustnessAcrossSeeds sweeps randomized communities through
// the full pipeline and checks structural invariants at every stage —
// the pipeline must be total over its input space, not just over the
// fixture seeds the other tests use.
func TestPipelineRobustnessAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			spec := simulate.CommunitySpec{
				Name: "fuzz",
				Seed: 9000 + seed,
				Genera: []simulate.GenusSpec{
					{Genus: "A", Phylum: "P1", GenomeLen: 3000 + int(seed)*500, Abundance: 1, Divergence: 0.12},
					{Genus: "B", Phylum: "P1", GenomeLen: 2500, Abundance: 0.5 + float64(seed)/4, Divergence: 0.12},
					{Genus: "C", Phylum: "P2", GenomeLen: 2000, Abundance: 1, Divergence: 0.10},
				},
				RepeatLen:     150,
				RepeatCopies:  int(seed % 3),
				ConservedFrac: 0.1,
				ConservedLen:  300,
				ConservedDiv:  0.02,
			}
			com, err := simulate.BuildCommunity(spec)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
				ReadLen: 100, Coverage: 7,
				ErrorRate5: 0.002, ErrorRate3: 0.015, IndelRate: 0.0005,
				Seed: 9100 + seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, s, err := Assemble(rs.Reads, testConfig(), 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Invariants.
			// RepOf maps every G0 node (= read) to its hybrid node.
			if s.Hyb.G.NumNodes() == 0 || len(s.Hyb.RepOf) != len(s.Reads) {
				t.Fatalf("graph sizes: hyb=%d g0=%d reads=%d", s.Hyb.G.NumNodes(), len(s.Hyb.RepOf), len(s.Reads))
			}
			seen := map[int32]bool{}
			for _, p := range res.Paths {
				for _, v := range p {
					if seen[v] {
						t.Fatalf("node %d appears in two paths", v)
					}
					seen[v] = true
				}
			}
			if res.Stats.TotalBases == 0 {
				t.Fatal("empty assembly")
			}
			if res.Stats.N50 > res.Stats.MaxContig {
				t.Fatalf("N50 %d > max %d", res.Stats.N50, res.Stats.MaxContig)
			}
			// Partition both ways; validate.
			hres, _, err := s.PartitionHybrid(4, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := partition.Validate(s.Hyb.G, hres.Labels(), 4); err != nil {
				t.Fatal(err)
			}
			mres, _, err := s.PartitionMultilevel(4, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			mset, err := s.MultilevelSet()
			if err != nil {
				t.Fatal(err)
			}
			if err := partition.Validate(mset.Levels[0], mres.Labels(), 4); err != nil {
				t.Fatal(err)
			}
			hc, oc := s.HybridCuts(hres)
			if hc < 0 || oc < 0 || hc != oc {
				// The hybrid cut and its projection onto G0 are the same
				// sum by construction.
				t.Fatalf("cut mismatch: hybrid %d vs projected %d", hc, oc)
			}
		})
	}
}
