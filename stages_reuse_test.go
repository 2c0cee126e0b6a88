package focus

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/graph"
)

// reuseConfig keeps enough coarsest-level nodes for a 16-way partition.
func reuseConfig(stateful bool) Config {
	cfg := testConfig()
	cfg.Coarsen.MinNodes = 64
	cfg.Assembly.Stateful = stateful
	return cfg
}

func sameContigs(a, b [][]byte) bool {
	return len(a) == len(b) && bytes.Equal(bytes.Join(a, []byte{0}), bytes.Join(b, []byte{0}))
}

// TestStagesReuseSweepMatchesFreshStages: a k-sweep on one Stages — one
// directed graph build, one clone per k — yields the contigs a fresh Stages
// per k yields, under both worker protocols.
func TestStagesReuseSweepMatchesFreshStages(t *testing.T) {
	reads, _ := simReads(t, 12000, 15, 310)
	for _, stateful := range []bool{false, true} {
		pool, err := dist.NewLocalPool(2, assembly.NewService)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		shared, err := BuildStages(reads, reuseConfig(stateful))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 16} {
			got, err := shared.Assemble(pool, k, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := BuildStages(reads, reuseConfig(stateful))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Assemble(pool, k, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Contigs) == 0 || !sameContigs(got.Contigs, want.Contigs) {
				t.Fatalf("stateful=%v k=%d: reused Stages gave %d contigs, a fresh one %d, or they differ",
					stateful, k, len(got.Contigs), len(want.Contigs))
			}
		}
	}
}

// TestStagesReuseTemplateUntouched: the driver trims its clone; the graph
// Stages holds is, after a run that removed nodes and edges, still the
// graph as built.
func TestStagesReuseTemplateUntouched(t *testing.T) {
	reads, _ := simReads(t, 12000, 15, 311)
	s, err := BuildStages(reads, reuseConfig(false))
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
	for _, stateful := range []bool{false, true} {
		s, err := BuildStages(reads, reuseConfig(stateful))
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
				t.Fatalf("stateful=%v k=%d: %v", stateful, k, errs[i])
			}
			if !sameContigs(together[i].Contigs, alone[i].Contigs) {
				t.Errorf("stateful=%v k=%d: concurrent run differs from the run alone", stateful, k)
			}
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
	if want := graph.Contract(s.G0, s.Hyb.RepOf, len(s.Hyb.Nodes), 1); !s.Hyb.G.Equal(want) {
		t.Error("Hyb.G is not the contraction of G0 by RepOf")
	}
}
