package focus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"focus/internal/assembly"
	"focus/internal/coarsen"
	"focus/internal/dist"
	"focus/internal/graph"
	"focus/internal/hybrid"
	"focus/internal/overlap"
	"focus/internal/partition"
)

// reuseConfig keeps enough coarsest-level nodes for a 16-way partition.
func reuseConfig() Config {
	cfg := testConfig()
	cfg.Coarsen.MinNodes = 64
	return cfg
}

func sameContigs(a, b [][]byte) bool {
	return len(a) == len(b) && bytes.Equal(bytes.Join(a, []byte{0}), bytes.Join(b, []byte{0}))
}

// TestStagesReuseSweepMatchesFreshStages: a k-sweep on one Stages — one
// directed graph build, one clone per k — yields the contigs a fresh Stages
// per k yields.
func TestStagesReuseSweepMatchesFreshStages(t *testing.T) {
	reads, _ := simReads(t, 12000, 15, 310)
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	shared, err := BuildStages(reads, reuseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 16} {
		got, err := shared.Assemble(pool, k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildStages(reads, reuseConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Assemble(pool, k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Contigs) == 0 || !sameContigs(got.Contigs, want.Contigs) {
			t.Fatalf("k=%d: reused Stages gave %d contigs, a fresh one %d, or they differ",
				k, len(got.Contigs), len(want.Contigs))
		}
	}
}

// TestStagesReuseTemplateUntouched: the driver trims its clone; the graph
// Stages holds is, after a run that removed nodes and edges, still the
// graph as built.
func TestStagesReuseTemplateUntouched(t *testing.T) {
	reads, _ := simReads(t, 12000, 15, 311)
	s, err := BuildStages(reads, reuseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := s.Assemble(pool, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trim.TransitiveEdges+res.Trim.ContainedNodes+res.Trim.FalseEdges+res.Trim.DeadEndNodes == 0 {
		t.Fatal("the run trimmed nothing, so it cannot show the template survives trimming")
	}
	asBuilt, err := assembly.BuildDiGraph(s.Hyb, s.Records)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := s.DiGraph
	if !reflect.DeepEqual(tmpl.Out, asBuilt.Out) || !reflect.DeepEqual(tmpl.In, asBuilt.In) ||
		!reflect.DeepEqual(tmpl.Removed, asBuilt.Removed) || !reflect.DeepEqual(tmpl.Weight, asBuilt.Weight) {
		t.Fatal("Assemble changed Stages.DiGraph")
	}
}

// TestStagesReuseConcurrentAssemble: two Assemble calls share one Stages
// and one pool at the same time (run under -race by scripts/race.sh) and
// each returns what it returns alone.
func TestStagesReuseConcurrentAssemble(t *testing.T) {
	reads, _ := simReads(t, 12000, 15, 312)
	s, err := BuildStages(reads, reuseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ks := []int{2, 4}
	alone := make([]*AssemblyResult, len(ks))
	for i, k := range ks {
		if alone[i], err = s.Assemble(pool, k, 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	together := make([]*AssemblyResult, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = s.Assemble(pool, k, 2, 1)
		}()
	}
	wg.Wait()
	for i, k := range ks {
		if errs[i] != nil {
			t.Fatalf("k=%d: %v", k, errs[i])
		}
		if !sameContigs(together[i].Contigs, alone[i].Contigs) {
			t.Errorf("k=%d: concurrent run differs from the run alone", k)
		}
	}
}

// TestStagesReuseSharedContraction: G'0 is contracted once — the hybrid
// graph and level 0 of the hybrid set are one object — and it is the graph
// contracting G0 by RepOf with summed node weights gives, which is what
// level 0 of the set used to be built as.
func TestStagesReuseSharedContraction(t *testing.T) {
	reads, _ := simReads(t, 4000, 6, 313)
	s, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Hyb.G != s.Hyb.Set.Levels[0] {
		t.Error("Hyb.G and Hyb.Set.Levels[0] are two graphs")
	}
	mset, err := s.MultilevelSet()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := graph.ContractCtx(nil, mset.Levels[0], s.Hyb.RepOf, len(s.Hyb.Nodes), 1); !s.Hyb.G.Equal(want) {
		t.Error("Hyb.G is not the contraction of G0 by RepOf")
	}
}

// kept is what a run keeps past the hybrid stage: the hybrid set, the
// directed graph and a shared bisection of the hybrid set.
type kept struct {
	hyb  *hybrid.Hybrid
	dg   *assembly.DiGraph
	slot *bisectionSlot
}

// buildAndDrop builds G0, the multilevel set, the hybrid set, the directed
// graph and a bisection with the layer functions, as buildStages does, and
// returns what a run keeps and weak pointers to every multilevel level and
// to the arc arena of every level that has arcs. Its own references to the
// levels end when it returns.
func buildAndDrop(t *testing.T, reads []Read, recs []overlap.Record, cfg Config) (kept, []weak.Pointer[graph.Graph], []weak.Pointer[graph.Arc]) {
	g0, err := overlap.BuildGraphParCtx(nil, len(reads), recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	mset, err := coarsen.MultilevelCtx(nil, g0, cfg.Coarsen)
	if err != nil {
		t.Fatal(err)
	}
	k := kept{slot: &bisectionSlot{}}
	if k.hyb, err = hybrid.BuildCtx(nil, mset, reads, recs, cfg.Hybrid); err != nil {
		t.Fatal(err)
	}
	if k.dg, err = assembly.BuildDiGraph(k.hyb, recs); err != nil {
		t.Fatal(err)
	}
	opt := partitionOptions(4, 2, 1)
	if _, err := k.slot.get(k.hyb.Set, opt).Partition(nil, opt); err != nil {
		t.Fatal(err)
	}
	var levels []weak.Pointer[graph.Graph]
	var arenas []weak.Pointer[graph.Arc]
	for _, g := range mset.Levels {
		levels = append(levels, weak.Make(g))
		for v := range g.NumNodes() {
			if adj := g.Adj(v); len(adj) > 0 {
				arenas = append(arenas, weak.Make(&adj[0]))
				break
			}
		}
	}
	return k, levels, arenas
}

// TestStagesKeepNoMultilevelGraph: nothing a run keeps past the hybrid
// stage aliases G0 or a level of the multilevel set, so once buildStages
// drops its references the collector frees them all.
func TestStagesKeepNoMultilevelGraph(t *testing.T) {
	reads, _ := simReads(t, 4000, 6, 315)
	cfg := testConfig()
	s, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, levels, arenas := buildAndDrop(t, s.Reads, s.Records, cfg)
	if len(levels) < 2 || len(arenas) == 0 {
		t.Fatalf("%d levels, %d arc arenas", len(levels), len(arenas))
	}
	runtime.GC()
	for i, p := range levels {
		if p.Value() != nil {
			t.Errorf("level %d of the multilevel set is still reachable", i)
		}
	}
	for i, p := range arenas {
		if p.Value() != nil {
			t.Errorf("arc arena %d of the multilevel set is still reachable", i)
		}
	}
	// What is kept still serves: the shared bisection partitions at a new k.
	opt := partitionOptions(8, 2, 1)
	if _, err := k.slot.get(k.hyb.Set, opt).Partition(nil, opt); err != nil {
		t.Fatal(err)
	}
	if k.dg.NumNodes() != k.hyb.G.NumNodes() {
		t.Errorf("directed graph has %d nodes, hybrid graph %d", k.dg.NumNodes(), k.hyb.G.NumNodes())
	}
}

// samePartition reports how got differs from want: labels on any level of
// the hybrid set, or the number of step and k-way task times.
func samePartition(got, want *partition.Result) error {
	for i := range want.LevelLabels {
		if !slices.Equal(got.LevelLabels[i], want.LevelLabels[i]) {
			return fmt.Errorf("level %d labels differ", i)
		}
	}
	if len(got.StepTaskTimes) != len(want.StepTaskTimes) || len(got.KWayTimes) != len(want.KWayTimes) {
		return fmt.Errorf("%d steps and %d k-way times, want %d and %d",
			len(got.StepTaskTimes), len(got.KWayTimes), len(want.StepTaskTimes), len(want.KWayTimes))
	}
	return nil
}

// TestStagesReuseSharedBisection: Assemble partitions on one bisection
// prefix per Stages. Ascending, descending and concurrent sweeps, a Stages
// copied by value (of the same set or with another set) and a Stages
// built by hand all partition as a fresh PartitionSetCtx does; a cancel
// keeps only the steps completed before it.
func TestStagesReuseSharedBisection(t *testing.T) {
	reads, _ := simReads(t, 12000, 15, 314)
	s, err := BuildStages(reads, reuseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{2, 4, 8, 16}
	freshOf := func(s *Stages) map[int]*partition.Result {
		t.Helper()
		fresh := map[int]*partition.Result{}
		for _, k := range ks {
			res, err := partition.PartitionSetCtx(nil, s.Hyb.Set, partitionOptions(k, 2, 1))
			if err != nil {
				t.Fatal(err)
			}
			fresh[k] = res
		}
		return fresh
	}
	fresh := freshOf(s)
	sweep := func(name string, s *Stages, fresh map[int]*partition.Result, order []int) {
		t.Helper()
		for _, k := range order {
			res, err := s.partitionShared(k, 2, 1)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if err := samePartition(res, fresh[k]); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
		}
	}
	withSlot := func() *Stages {
		c := *s
		c.bisection = &bisectionSlot{}
		return &c
	}

	sweep("ascending", withSlot(), fresh, ks)
	sweep("descending", withSlot(), fresh, []int{16, 8, 4, 2})

	conc := withSlot()
	var wg sync.WaitGroup
	errs := make([]error, 2*len(ks))
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := ks[i%len(ks)]
			res, err := conc.partitionShared(k, 2, 1)
			if err == nil {
				err = samePartition(res, fresh[k])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent: %v", err)
		}
	}

	// A value copy shares the prefix of the set it partitions; one given
	// another set partitions that set.
	sweep("value copy", func() *Stages { c := *conc; return &c }(), fresh, ks)
	otherReads, _ := simReads(t, 12000, 15, 315)
	other, err := BuildStages(otherReads, reuseConfig())
	if err != nil {
		t.Fatal(err)
	}
	moved := *conc
	moved.Hyb = other.Hyb
	sweep("copy with another set", &moved, freshOf(other), ks)
	sweep("copy back on its set", conc, fresh, ks)

	sweep("built by hand", &Stages{Hyb: s.Hyb}, fresh, ks)

	// A canceled call stores no step: the copy shares the slot, whose
	// bisection holds two steps, and cannot add the third.
	canceled := withSlot()
	sweep("before the cancel", canceled, fresh, ks[:2])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := *canceled
	c.Cfg.Context = ctx
	if _, err := c.partitionShared(16, 2, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled partition returned %v", err)
	}
	if got := canceled.bisection.b.Steps(); got != 2 {
		t.Fatalf("%d bisection steps stored after the canceled call, want 2", got)
	}
	sweep("after the cancel", canceled, fresh, ks)
}
