package focus

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"focus/internal/simulate"
)

// settablePaths lists the exported field paths of t that a caller can
// set, descending into struct-typed fields: the configuration surface.
func settablePaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, settablePaths(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestConfigSurface pins every setting reachable from Config. A new one
// is a deliberate change: it shows up here as a diff, next to the reason
// the paper's computation needs it.
func TestConfigSurface(t *testing.T) {
	got := settablePaths(reflect.TypeOf(Config{}), "")
	slices.Sort(got)
	want := []string{
		"Assembly.Band", "Assembly.DiagTolerance", "Assembly.MaxTipNodes",
		"Assembly.MinEdgeIdentity", "Assembly.MinEdgeOverlap", "Assembly.MinTipLen",
		"Assembly.Stateful",
		"CallVariants",
		"Checkpoint.Dir", "Checkpoint.Every", "Checkpoint.Job", "Checkpoint.Resume",
		"Coarsen.MaxLevels", "Coarsen.MinNodes", "Coarsen.MinShrink", "Coarsen.Seed",
		"Context", "Deadline",
		"Dist.CallTimeout", "Dist.Logf", "Dist.MaxFailures", "Dist.MaxReconnects",
		"Dist.ReconnectMax", "Dist.ReconnectMin", "Dist.Seed", "Dist.WrapConn",
		"GraphWorkers",
		"Hybrid.PosTolerance", "Hybrid.RequireOverlap",
		"Metrics",
		"Overlap.Align.Band", "Overlap.Align.MinIdentity", "Overlap.Align.MinLength",
		"Overlap.Align.Scoring.Gap", "Overlap.Align.Scoring.Match", "Overlap.Align.Scoring.Mismatch",
		"Overlap.K", "Overlap.MaxOccur", "Overlap.MinKmerHits", "Overlap.Step",
		"Preprocess.AddReverse", "Preprocess.MinLen", "Preprocess.MinQuality", "Preprocess.Step",
		"Preprocess.Trim3", "Preprocess.Trim5", "Preprocess.Window",
		"Subsets",
		"Variants.Band", "Variants.MaxLenDiff", "Variants.MinBranchCov", "Variants.MinIdentity",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Config settings (%d) = %q\nwant (%d) %q", len(got), got, len(want), want)
	}
}

// TestAssembleWidthInvariant: the pool widths and the subset count never
// change the answer. Assemble on a small simulated community yields
// byte-identical records and contigs at GOMAXPROCS 1 and 4 (which resizes
// every governor-sized stage pool) crossed with in-process worker pools of
// 1 and 3 (which moves the partition tasks and the partitioner's processor
// count) and with 1, 2, 4 and 7 read subsets (which only cut the overlap
// stage into jobs).
func TestAssembleWidthInvariant(t *testing.T) {
	com, err := simulate.BuildCommunity(simulate.CommunitySpec{
		Name: "width", Seed: 41,
		Genera: []simulate.GenusSpec{
			{Genus: "A", Phylum: "P1", GenomeLen: 3500, Abundance: 1, Divergence: 0.1},
			{Genus: "B", Phylum: "P2", GenomeLen: 2500, Abundance: 0.6, Divergence: 0.1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: 8, ErrorRate5: 0.002, ErrorRate3: 0.01, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var ref *AssemblyResult
	var refStages *Stages
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3} {
			for _, subsets := range []int{1, 2, 4, 7} {
				setting := fmt.Sprintf("GOMAXPROCS=%d workers=%d subsets=%d", procs, workers, subsets)
				cfg := testConfig()
				cfg.Subsets = subsets
				res, s, err := Assemble(rs.Reads, cfg, 4, workers)
				if err != nil {
					t.Fatalf("%s: %v", setting, err)
				}
				if ref == nil {
					if len(s.Records) == 0 || len(res.Contigs) == 0 {
						t.Fatalf("%s: %d records, %d contigs", setting, len(s.Records), len(res.Contigs))
					}
					t.Logf("%d reads, %d records, %d contigs", len(s.Reads), len(s.Records), len(res.Contigs))
					ref, refStages = res, s
					continue
				}
				if !slices.Equal(s.Records, refStages.Records) {
					t.Fatalf("%s: overlap records differ from GOMAXPROCS=1 workers=1 subsets=1", setting)
				}
				if !slices.EqualFunc(res.Contigs, ref.Contigs, bytes.Equal) {
					t.Fatalf("%s: contigs differ from GOMAXPROCS=1 workers=1 subsets=1", setting)
				}
			}
		}
	}
}
