package assembly

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
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
	if err := svc.Load(&LoadArgs{RunID: "r1", Sub: *chainSub(3), Epoch: 1}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Nodes != 3 {
		t.Fatalf("load reply %+v", lr)
	}
	var pr PhaseReply
	if err := svc.Phase(&PhaseArgs{RunID: "r1", Part: 0, Phase: "Paths", Epoch: 1, Cfg: DefaultConfig()}, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Paths) != 1 || len(pr.Paths[0]) != 3 {
		t.Fatalf("paths = %v", pr.Paths)
	}
	// Unknown phase and unknown partition error.
	if err := svc.Phase(&PhaseArgs{RunID: "r1", Part: 0, Phase: "Nope", Epoch: 1}, &pr); err == nil {
		t.Error("unknown phase accepted")
	}
	if err := svc.Phase(&PhaseArgs{RunID: "rX", Part: 0, Phase: "Paths", Epoch: 1}, &pr); err == nil {
		t.Error("unloaded run accepted")
	}
	// Unload forgets the run.
	var ok dist.Ack
	if err := svc.Unload(&UnloadArgs{RunID: "r1"}, &ok); err != nil || !ok {
		t.Fatal(err)
	}
	if err := svc.Phase(&PhaseArgs{RunID: "r1", Part: 0, Phase: "Paths", Epoch: 1}, &pr); err == nil {
		t.Error("unloaded partition still served")
	}
}

// TestEpochFencing pins the fencing rules of DESIGN.md §11: a Load must
// strictly advance the stored epoch, a Phase must name the stored epoch
// exactly, and fencing rejections are rehostable app-level errors.
func TestEpochFencing(t *testing.T) {
	svc := &Service{}
	var lr LoadReply
	if err := svc.Load(&LoadArgs{RunID: "r", Sub: *chainSub(3), Epoch: 2}, &lr); err != nil {
		t.Fatal(err)
	}
	// A late duplicate Load at the same or an older epoch is rejected.
	for _, e := range []int64{2, 1} {
		err := svc.Load(&LoadArgs{RunID: "r", Sub: *chainSub(3), Epoch: e}, &lr)
		if err == nil {
			t.Fatalf("Load at epoch %d accepted over stored epoch 2", e)
		}
		if !IsRehostable(err) {
			t.Fatalf("stale Load error not rehostable: %v", err)
		}
	}
	// Phases at mismatched epochs — older (late request from before a
	// re-host) or newer (worker restarted with an older copy) — are fenced.
	var pr PhaseReply
	for _, e := range []int64{1, 3} {
		err := svc.Phase(&PhaseArgs{RunID: "r", Part: 0, Phase: "Paths", Epoch: e, Cfg: DefaultConfig()}, &pr)
		if err == nil {
			t.Fatalf("Phase at epoch %d accepted over stored epoch 2", e)
		}
		if !IsRehostable(err) {
			t.Fatalf("epoch-fenced Phase error not rehostable: %v", err)
		}
	}
	// The matching epoch still works.
	if err := svc.Phase(&PhaseArgs{RunID: "r", Part: 0, Phase: "Paths", Epoch: 2, Cfg: DefaultConfig()}, &pr); err != nil {
		t.Fatal(err)
	}
	// A Load at a newer epoch (re-host onto this worker) is accepted, and
	// fences out the previous epoch's phases.
	if err := svc.Load(&LoadArgs{RunID: "r", Sub: *chainSub(3), Epoch: 5}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := svc.Phase(&PhaseArgs{RunID: "r", Part: 0, Phase: "Paths", Epoch: 2, Cfg: DefaultConfig()}, &pr); err == nil {
		t.Fatal("pre-rehost Phase accepted after epoch advance")
	}
	// Not-loaded is rehostable too (worker restart lost the state table).
	err := svc.Phase(&PhaseArgs{RunID: "gone", Part: 0, Phase: "Paths", Epoch: 1}, &pr)
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

// TestStatefulMatchesLocal runs the full trim+traverse+contigs flow over
// the delta protocol and on the master alone (nil pool), and demands
// identical output.
func TestStatefulMatchesLocal(t *testing.T) {
	genome := randGenome(80, 4000)
	reads := tilingReads(genome, 100, 25)

	run := func(pooled bool) ([][]byte, TrimStats) {
		dg, labels, _ := buildPipeline(t, reads, 4)
		var pool *dist.Pool
		if pooled {
			var err error
			if pool, err = dist.NewLocalPool(2, NewService); err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
		}
		d, err := NewDriver(pool, dg, labels, 4, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		st, err := d.Trim()
		if err != nil {
			t.Fatal(err)
		}
		paths, _, err := d.TraverseTimed()
		if err != nil {
			t.Fatal(err)
		}
		if pooled && d.DegradeReason() != DegradeNone {
			t.Fatal("pooled run degraded to local execution")
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
			t.Fatalf("contig %d differs between the pool and the master", i)
		}
	}
}

// cloneSub deep-copies a subgraph's id and edge lists (contigs are shared:
// nothing mutates them).
func cloneSub(s Subgraph) Subgraph {
	s.Local = slices.Clone(s.Local)
	s.Nodes = slices.Clone(s.Nodes)
	s.Edges = slices.Clone(s.Edges)
	return s
}

// isSubsequence reports whether sub lists elements of all in all's order.
func isSubsequence[T comparable](sub, all []T) bool {
	i := 0
	for _, x := range all {
		if i < len(sub) && sub[i] == x {
			i++
		}
	}
	return i == len(sub)
}

// TestPhaseDeltaExact checks Driver.phaseDeltas on random graphs, labels
// and removal sequences, with partitions re-hosted between phases and in
// the middle of one. For every partition and phase, the delta it gets
// applied to the copy its worker holds must give exactly what the whole
// delta gives (the copy every worker computed on before deltas were
// split); and the delta must be minimal and ordered: only removals of
// nodes and edges the Loaded subgraph holds, in the global order.
func TestPhaseDeltaExact(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		n, k := 4+rng.Intn(40), 1+rng.Intn(6)
		g := &DiGraph{
			Contigs: make([][]byte, n), Weight: make([]int64, n), Removed: make([]bool, n),
			Out: make([][]Edge, n), In: make([][]Edge, n),
		}
		labels := make([]int32, n)
		for v := range labels {
			g.Contigs[v] = []byte("ACGT")
			labels[v] = int32(rng.Intn(k))
		}
		seen := map[EdgePair]bool{}
		for m := rng.Intn(3 * n); m > 0; m-- {
			e := EdgePair{From: int32(rng.Intn(n)), To: int32(rng.Intn(n))}
			if e.From == e.To || seen[e] {
				continue
			}
			seen[e] = true
			edge := Edge{From: e.From, To: e.To, Diag: 10, Len: 50, Ident: 1}
			g.Out[e.From] = append(g.Out[e.From], edge)
			g.In[e.To] = append(g.In[e.To], edge)
		}
		d, err := NewDriver(nil, g, labels, k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.localOnly = false // record removals as a pooled run does
		d.stored = make([][]int32, k)
		split := make([]Subgraph, k)  // each worker's copy under split deltas
		whole := make([]Subgraph, k)  // the same copy under the whole delta
		loaded := make([]Subgraph, k) // the copy as Loaded
		load := func(p int) {
			loaded[p] = subgraphsOf(g, labels, k, 1)[p]
			d.stored[p] = nodeIDs(loaded[p].Nodes)
			split[p], whole[p] = cloneSub(loaded[p]), cloneSub(loaded[p])
		}
		for p := 0; p < k; p++ {
			load(p)
		}
		for phase := 0; phase < 4; phase++ {
			for r := rng.Intn(n/2 + 1); r > 0; r-- {
				if v := int32(rng.Intn(n)); rng.Intn(3) == 0 && !g.Removed[v] {
					d.removeNode(v)
				} else if len(g.Out[v]) > 0 {
					e := g.Out[v][rng.Intn(len(g.Out[v]))]
					d.removeEdge(EdgePair{From: e.From, To: e.To})
				}
			}
			all := Delta{RemovedNodes: slices.Clone(d.pendingNodes), RemovedEdges: slices.Clone(d.pendingEdges)}
			deltas := d.phaseDeltas()
			for p := 0; p < k; p++ {
				prev := loaded[p]
				if rng.Intn(4) == 0 { // re-hosted mid-phase: the delta meets a fresh copy
					load(p)
				}
				dt := deltas[p]
				if !isSubsequence(dt.RemovedNodes, all.RemovedNodes) || !isSubsequence(dt.RemovedEdges, all.RemovedEdges) {
					t.Fatalf("iter %d phase %d partition %d: delta %+v is not in the order of %+v", iter, phase, p, dt, all)
				}
				for _, v := range dt.RemovedNodes {
					if !slices.ContainsFunc(prev.Nodes, func(w WireNode) bool { return w.ID == v }) {
						t.Fatalf("iter %d phase %d partition %d: delta removes node %d it never stored", iter, phase, p, v)
					}
				}
				for _, e := range dt.RemovedEdges {
					if !slices.ContainsFunc(prev.Edges, func(x Edge) bool { return x.From == e.From && x.To == e.To }) {
						t.Fatalf("iter %d phase %d partition %d: delta removes edge %v it never stored", iter, phase, p, e)
					}
				}
				applyDelta(&split[p], dt)
				applyDelta(&whole[p], all)
				if !reflect.DeepEqual(split[p], whole[p]) {
					t.Fatalf("iter %d phase %d partition %d: split delta left\n%+v\nthe whole delta\n%+v", iter, phase, p, split[p], whole[p])
				}
			}
			if rng.Intn(3) == 0 { // re-hosted between phases
				load(rng.Intn(k))
			}
		}
	}
}

// loadRefuser is a worker that refuses to store partition 1.
type loadRefuser struct{ Service }

func (l *loadRefuser) Load(args *LoadArgs, reply *LoadReply) error {
	if args.Sub.Part == 1 {
		return errors.New("injected Load refusal")
	}
	return l.Service.Load(args, reply)
}

// TestCloseUnloadsAfterFailedLoad: when the initial Load fails for one
// partition, the run fails, but Close still unloads the partitions the
// other Loads stored — a worker without -run-ttl would keep them forever.
func TestCloseUnloadsAfterFailedLoad(t *testing.T) {
	var mu sync.Mutex
	var svcs []*loadRefuser
	pool, err := dist.NewLocalPool(2, func() interface{} {
		s := &loadRefuser{}
		mu.Lock()
		svcs = append(svcs, s)
		mu.Unlock()
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d := chaosPipeline(t, pool, 4)
	if _, err := d.Trim(); err == nil || !strings.Contains(err.Error(), "injected Load refusal") {
		t.Fatalf("Trim with a refused Load: %v", err)
	}
	stored := func() []string {
		mu.Lock()
		defer mu.Unlock()
		var keys []string
		for _, s := range svcs {
			st := s.ensureState()
			st.mu.Lock()
			for key := range st.parts {
				keys = append(keys, key)
			}
			st.mu.Unlock()
		}
		slices.Sort(keys)
		return keys
	}
	want := []string{d.runID + "/0", d.runID + "/2", d.runID + "/3"}
	if got := stored(); !reflect.DeepEqual(got, want) {
		t.Fatalf("before Close the workers store %v, want %v", got, want)
	}
	for _, p := range []int{0, 2, 3} {
		if d.placement[p] < 0 || d.stored[p] == nil {
			t.Fatalf("partition %d: Load succeeded but placement %d, stored ids %v", p, d.placement[p], d.stored[p])
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stored(); len(got) != 0 {
		t.Fatalf("after Close the workers still store %v", got)
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
	d, err := NewDriver(pool, dg, []int32{0, 0, 1, 1, 1}, 2, DefaultConfig())
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
