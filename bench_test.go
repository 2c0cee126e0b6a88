package focus

// Ablation benches for the design constants DESIGN.md calls out, plus the
// whole-pipeline benches. The paper's tables and figures (§VI) have one
// runner, cmd/focus-bench.

import (
	"fmt"
	"sync"
	"testing"

	"focus/internal/assembly"
	"focus/internal/coarsen"
	"focus/internal/dist"
	"focus/internal/overlap"
	"focus/internal/partition"
	"focus/internal/simulate"
)

const (
	benchScale    = 0.15
	benchCoverage = 6
)

type benchData struct {
	com    *simulate.Community
	rs     *simulate.ReadSet
	stages *Stages
}

var (
	benchMu    sync.Mutex
	benchCache = map[int]*benchData{}
)

// benchSet builds (once) the community, reads and pipeline stages for a
// paper data set analogue.
func benchSet(b *testing.B, id int) *benchData {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if d, ok := benchCache[id]; ok {
		return d
	}
	spec, err := simulate.PaperDataSet(id, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.PaperReadConfig(id, benchCoverage))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Preprocess.Trim5 = 8
	cfg.Coarsen.MinNodes = 64
	s, err := BuildStages(rs.Reads, cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := &benchData{com: com, rs: rs, stages: s}
	benchCache[id] = d
	return d
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationBalanceBound varies the 1.03 balance constant.
func BenchmarkAblationBalanceBound(b *testing.B) {
	d := benchSet(b, 1)
	for _, bal := range []float64{1.01, 1.03, 1.10, 1.50} {
		b.Run(fmt.Sprintf("balance=%.2f", bal), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				opt := partition.DefaultOptions(8)
				opt.Balance = bal
				res, err := partition.PartitionSet(d.stages.Hyb.Set, opt)
				if err != nil {
					b.Fatal(err)
				}
				cut = partition.EdgeCut(d.stages.Hyb.G, res.Labels())
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

// BenchmarkAblationEarlyStop varies the 50-move KL early-stop constant.
func BenchmarkAblationEarlyStop(b *testing.B) {
	d := benchSet(b, 1)
	for _, stop := range []int{10, 50, 200, 1 << 30} {
		b.Run(fmt.Sprintf("earlyStop=%d", stop), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				opt := partition.DefaultOptions(8)
				opt.EarlyStop = stop
				res, err := partition.PartitionSet(d.stages.Hyb.Set, opt)
				if err != nil {
					b.Fatal(err)
				}
				cut = partition.EdgeCut(d.stages.Hyb.G, res.Labels())
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

// BenchmarkAblationKWay compares full partitioning against skipping the
// final global k-way refinement.
func BenchmarkAblationKWay(b *testing.B) {
	d := benchSet(b, 1)
	for _, skip := range []bool{false, true} {
		b.Run(fmt.Sprintf("skipKWay=%v", skip), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				opt := partition.DefaultOptions(8)
				opt.SkipKWay = skip
				res, err := partition.PartitionSet(d.stages.Hyb.Set, opt)
				if err != nil {
					b.Fatal(err)
				}
				cut = partition.EdgeCut(d.stages.Hyb.G, res.Labels())
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}

// BenchmarkAblationCoarsenLevels varies the coarsening depth (the paper's
// sets had ten levels).
func BenchmarkAblationCoarsenLevels(b *testing.B) {
	d := benchSet(b, 1)
	mset, err := d.stages.MultilevelSet()
	if err != nil {
		b.Fatal(err)
	}
	for _, levels := range []int{3, 6, 10} {
		b.Run(fmt.Sprintf("maxLevels=%d", levels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := coarsen.DefaultOptions()
				opt.MaxLevels = levels
				opt.MinNodes = 32
				set := coarsen.Multilevel(mset.Levels[0], opt)
				if set.Coarsest().NumNodes() == 0 {
					b.Fatal("empty coarsest graph")
				}
			}
		})
	}
}

// BenchmarkAblationBand varies the banded Needleman-Wunsch band width in
// overlap detection.
func BenchmarkAblationBand(b *testing.B) {
	d := benchSet(b, 1)
	reads := d.stages.Reads[:min(len(d.stages.Reads), 600)]
	for _, band := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("band=%d", band), func(b *testing.B) {
			var found int
			for i := 0; i < b.N; i++ {
				cfg := overlap.DefaultConfig()
				cfg.Align.Band = band
				recs, err := overlap.FindOverlaps(reads, 2, cfg)
				if err != nil {
					b.Fatal(err)
				}
				found = len(recs)
			}
			b.ReportMetric(float64(found), "overlaps")
		})
	}
}

// BenchmarkAblationTransport compares the assembly phases on the master
// alone (no transport) with the delta protocol on two in-process workers
// (partitions shipped once, phases send each partition its removals).
func BenchmarkAblationTransport(b *testing.B) {
	d := benchSet(b, 1)
	for _, pooled := range []bool{false, true} {
		name := "local"
		if pooled {
			name = "stateful-delta"
		}
		b.Run(name, func(b *testing.B) {
			var pool *dist.Pool
			if pooled {
				var err error
				if pool, err = dist.NewLocalPool(2, assembly.NewService); err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
			}
			for i := 0; i < b.N; i++ {
				if _, err := d.stages.Assemble(pool, 4, 2, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipeline measures the whole pipeline end to end.
func BenchmarkPipeline(b *testing.B) {
	spec, err := simulate.PaperDataSet(1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.PaperReadConfig(1, 5))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Preprocess.Trim5 = 8
	cfg.Coarsen.MinNodes = 16
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Assemble(rs.Reads, cfg, 4, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
