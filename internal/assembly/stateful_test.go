package assembly

import (
	"bytes"
	"fmt"
	"testing"

	"focus/internal/dist"
)

func TestApplyDelta(t *testing.T) {
	sub := chainSub(4)
	applyDelta(sub, Delta{
		RemovedNodes: []int32{2},
		RemovedEdges: []EdgePair{{From: 0, To: 1}},
	})
	if len(sub.Local) != 3 || len(sub.Nodes) != 3 {
		t.Fatalf("after delta: local=%v nodes=%d", sub.Local, len(sub.Nodes))
	}
	for _, id := range sub.Local {
		if id == 2 {
			t.Fatal("removed node still local")
		}
	}
	// Edges 0->1 (explicit) and 1->2, 2->3 (node removal) are gone.
	if len(sub.Edges) != 0 {
		t.Fatalf("edges = %+v", sub.Edges)
	}
	// Empty delta is a no-op.
	before := len(sub.Nodes)
	applyDelta(sub, Delta{})
	if len(sub.Nodes) != before {
		t.Fatal("empty delta changed the subgraph")
	}
}

func TestStatefulServiceLifecycle(t *testing.T) {
	svc := &Service{}
	var lr LoadReply
	if err := svc.Load(&LoadArgs{RunID: "r1", Sub: *chainSub(3), Cfg: DefaultConfig(), Epoch: 1}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Nodes != 3 {
		t.Fatalf("load reply %+v", lr)
	}
	var pr PhaseReplyStateful
	if err := svc.Phase(&PhaseArgsStateful{RunID: "r1", Part: 0, Phase: "Paths", Epoch: 1, Cfg: DefaultConfig()}, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Paths) != 1 || len(pr.Paths[0]) != 3 {
		t.Fatalf("paths = %v", pr.Paths)
	}
	// Unknown phase and unknown partition error.
	if err := svc.Phase(&PhaseArgsStateful{RunID: "r1", Part: 0, Phase: "Nope", Epoch: 1}, &pr); err == nil {
		t.Error("unknown phase accepted")
	}
	if err := svc.Phase(&PhaseArgsStateful{RunID: "rX", Part: 0, Phase: "Paths", Epoch: 1}, &pr); err == nil {
		t.Error("unloaded run accepted")
	}
	// Unload forgets the run.
	var ok dist.Ack
	if err := svc.Unload(&UnloadArgs{RunID: "r1"}, &ok); err != nil || !ok {
		t.Fatal(err)
	}
	if err := svc.Phase(&PhaseArgsStateful{RunID: "r1", Part: 0, Phase: "Paths", Epoch: 1}, &pr); err == nil {
		t.Error("unloaded partition still served")
	}
}

// TestEpochFencing pins the fencing rules of DESIGN.md §11: a Load must
// strictly advance the stored epoch, a Phase must name the stored epoch
// exactly, and fencing rejections are rehostable app-level errors.
func TestEpochFencing(t *testing.T) {
	svc := &Service{}
	var lr LoadReply
	if err := svc.Load(&LoadArgs{RunID: "r", Sub: *chainSub(3), Cfg: DefaultConfig(), Epoch: 2}, &lr); err != nil {
		t.Fatal(err)
	}
	// A late duplicate Load at the same or an older epoch is rejected.
	for _, e := range []int64{2, 1} {
		err := svc.Load(&LoadArgs{RunID: "r", Sub: *chainSub(3), Cfg: DefaultConfig(), Epoch: e}, &lr)
		if err == nil {
			t.Fatalf("Load at epoch %d accepted over stored epoch 2", e)
		}
		if !IsRehostable(err) {
			t.Fatalf("stale Load error not rehostable: %v", err)
		}
	}
	// Phases at mismatched epochs — older (late request from before a
	// re-host) or newer (worker restarted with an older copy) — are fenced.
	var pr PhaseReplyStateful
	for _, e := range []int64{1, 3} {
		err := svc.Phase(&PhaseArgsStateful{RunID: "r", Part: 0, Phase: "Paths", Epoch: e, Cfg: DefaultConfig()}, &pr)
		if err == nil {
			t.Fatalf("Phase at epoch %d accepted over stored epoch 2", e)
		}
		if !IsRehostable(err) {
			t.Fatalf("epoch-fenced Phase error not rehostable: %v", err)
		}
	}
	// The matching epoch still works.
	if err := svc.Phase(&PhaseArgsStateful{RunID: "r", Part: 0, Phase: "Paths", Epoch: 2, Cfg: DefaultConfig()}, &pr); err != nil {
		t.Fatal(err)
	}
	// A Load at a newer epoch (re-host onto this worker) is accepted, and
	// fences out the previous epoch's phases.
	if err := svc.Load(&LoadArgs{RunID: "r", Sub: *chainSub(3), Cfg: DefaultConfig(), Epoch: 5}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := svc.Phase(&PhaseArgsStateful{RunID: "r", Part: 0, Phase: "Paths", Epoch: 2, Cfg: DefaultConfig()}, &pr); err == nil {
		t.Fatal("pre-rehost Phase accepted after epoch advance")
	}
	// Not-loaded is rehostable too (worker restart lost the state table).
	err := svc.Phase(&PhaseArgsStateful{RunID: "gone", Part: 0, Phase: "Paths", Epoch: 1}, &pr)
	if !IsRehostable(err) {
		t.Fatalf("not-loaded error not rehostable: %v", err)
	}
	// Unknown-phase errors are NOT rehostable — re-hosting cannot fix them.
	if IsRehostable(fmt.Errorf("assembly: unknown phase %q", "Nope")) {
		t.Fatal("unknown-phase error misclassified as rehostable")
	}
	if IsRehostable(nil) {
		t.Fatal("nil error rehostable")
	}
}

// TestStatefulMatchesStateless runs the full trim+traverse+contigs flow
// under both protocols and demands identical output.
func TestStatefulMatchesStateless(t *testing.T) {
	genome := randGenome(80, 4000)
	reads := tilingReads(genome, 100, 25)

	run := func(stateful bool) ([][]byte, TrimStats) {
		dg, labels, _ := buildPipeline(t, reads, 4)
		pool, err := dist.NewLocalPool(2, NewService)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		cfg := DefaultConfig()
		cfg.Stateful = stateful
		d, err := NewDriver(pool, dg, labels, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		st, err := d.Trim()
		if err != nil {
			t.Fatal(err)
		}
		paths, err := d.Traverse()
		if err != nil {
			t.Fatal(err)
		}
		return d.BuildContigs(paths), st
	}

	cA, stA := run(false)
	cB, stB := run(true)
	if stA.TransitiveEdges != stB.TransitiveEdges || stA.ContainedNodes != stB.ContainedNodes ||
		stA.FalseEdges != stB.FalseEdges || stA.DeadEndNodes != stB.DeadEndNodes {
		t.Fatalf("trim stats differ: %+v vs %+v", stA, stB)
	}
	if len(cA) != len(cB) {
		t.Fatalf("contig counts differ: %d vs %d", len(cA), len(cB))
	}
	for i := range cA {
		if !bytes.Equal(cA[i], cB[i]) {
			t.Fatalf("contig %d differs between protocols", i)
		}
	}
}

// TestStatefulVariants: variant calling also works over the delta
// protocol.
func TestStatefulVariants(t *testing.T) {
	a := bytes.Repeat([]byte("ACGT"), 25)
	b := append([]byte(nil), a...)
	b[40] = 'G'
	dg := &DiGraph{
		Contigs: [][]byte{bytes.Repeat([]byte("A"), 100), a, bytes.Repeat([]byte("C"), 100), bytes.Repeat([]byte("G"), 100), b},
		Weight:  []int64{8, 5, 8, 8, 4},
		Removed: make([]bool, 5),
		Out:     make([][]Edge, 5),
		In:      make([][]Edge, 5),
	}
	add := func(f, to int32) {
		e := Edge{From: f, To: to, Diag: 60, Len: 40, Ident: 1}
		dg.Out[f] = append(dg.Out[f], e)
		dg.In[to] = append(dg.In[to], e)
	}
	add(0, 1)
	add(0, 4)
	add(1, 2)
	add(4, 2)
	add(2, 3)
	pool, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := DefaultConfig()
	cfg.Stateful = true
	d, err := NewDriver(pool, dg, []int32{0, 0, 1, 1, 1}, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	vars, err := d.CallVariants(DefaultVariantConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0].Kind != VariantSubstitution {
		t.Fatalf("variants = %+v", vars)
	}
}
