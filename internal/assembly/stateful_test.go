package assembly

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/testutil"
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
	var ack dist.Ack
	if err := svc.Load(&LoadArgs{Sub: *chainSub(3)}, &ack); err != nil || !ack {
		t.Fatal(err)
	}
	var pr PhaseReply
	if err := svc.Phase(&PhaseArgs{Part: 0, Phase: "Paths", Cfg: DefaultConfig()}, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Paths) != 1 || len(pr.Paths[0]) != 3 {
		t.Fatalf("paths = %v", pr.Paths)
	}
	// An unknown phase is a service error, which re-hosting cannot fix.
	// "Variants" is no phase of this protocol: the worker refuses it too.
	for _, phase := range []string{"Nope", "Variants"} {
		err := svc.Phase(&PhaseArgs{Part: 0, Phase: phase}, &pr)
		if err == nil || IsRehostable(err) {
			t.Errorf("unknown phase %q: %v", phase, err)
		}
	}
	// A partition this service never stored is rehostable.
	if err := svc.Phase(&PhaseArgs{Part: 1, Phase: "Paths"}, &pr); !IsRehostable(err) {
		t.Errorf("unloaded partition: %v", err)
	}
	if IsRehostable(nil) {
		t.Error("nil error rehostable")
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
		if pooled && d.localOnly {
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

func (l *loadRefuser) Load(args *LoadArgs, reply *dist.Ack) error {
	if args.Sub.Part == 1 {
		return errors.New("injected Load refusal")
	}
	return l.Service.Load(args, reply)
}

// trackConn is a worker's end of a connection that counts itself in open
// until it closes, which is the last thing the goroutine serving it does.
type trackConn struct {
	net.Conn
	open *atomic.Int32
	once sync.Once
}

func newTrackConn(c net.Conn, open *atomic.Int32) net.Conn {
	open.Add(1)
	return &trackConn{Conn: c, open: open}
}

func (c *trackConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// trackListener tracks every connection it accepts.
type trackListener struct {
	net.Listener
	open *atomic.Int32
}

func (l trackListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTrackConn(c, l.open), nil
}

// TestCloseFreesRunState: Driver.Close frees the run's worker state, in
// process and over TCP, while the fleet stays open. The run's Load of
// partition 1 is refused, so the run fails with partitions 0, 2 and 3
// stored on its connections, the only two the workers serve (the fleet
// holds none). Close closes them: the workers serve no connection, a
// fresh session finds none of the partitions, and both workers answer
// it.
func TestCloseFreesRunState(t *testing.T) {
	defer testutil.NoLeaks(t)
	var open atomic.Int32
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dist.NewServer(&loadRefuser{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(trackListener{lis, &open}) }()
	defer srv.Shutdown(0)
	for _, tc := range []struct {
		name string
		dial func() (*dist.Pool, error)
	}{
		{"in-process", func() (*dist.Pool, error) {
			return dist.NewLocalPoolOpts(2, func() interface{} { return &loadRefuser{} },
				dist.Options{WrapConn: func(_ int, c net.Conn) net.Conn { return newTrackConn(c, &open) }})
		}},
		{"tcp", func() (*dist.Pool, error) {
			addr := lis.Addr().String()
			return dist.DialPool([]string{addr, addr})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := tc.dial()
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			d := chaosPipeline(t, pool, 4)
			if _, err := d.Trim(); err == nil || !strings.Contains(err.Error(), "injected Load refusal") {
				t.Fatalf("Trim with a refused Load: %v", err)
			}
			for _, p := range []int{0, 2, 3} {
				if d.placement[p] < 0 || d.stored[p] == nil {
					t.Fatalf("partition %d: Load succeeded but placement %d, stored ids %v", p, d.placement[p], d.stored[p])
				}
				// The run's own connection holds it.
				if err := d.sess.Call(nil, d.placement[p], "Phase", &PhaseArgs{Part: int32(p), Phase: "Paths", Cfg: DefaultConfig()}, &PhaseReply{}); err != nil {
					t.Fatalf("partition %d before Close: %v", p, err)
				}
			}
			if n := open.Load(); n != 2 {
				t.Fatalf("%d connections served during the run, want the run's 2", n)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); open.Load() != 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d connections served after Close, want 0", open.Load())
				}
			}
			fresh := pool.Session()
			defer fresh.Close()
			for w := 0; w < 2; w++ {
				for p := 0; p < 4; p++ {
					err := fresh.Call(nil, w, "Phase", &PhaseArgs{Part: int32(p), Phase: "Paths", Cfg: DefaultConfig()}, &PhaseReply{})
					if !IsRehostable(err) {
						t.Fatalf("a fresh connection to worker %d asked for partition %d: %v, want not loaded", w, p, err)
					}
				}
				var ack dist.Ack
				if err := fresh.Call(nil, w, "Ping", new(dist.Ack), &ack); err != nil || !bool(ack) {
					t.Fatalf("worker %d after the run's Close: %v %v", w, ack, err)
				}
			}
		})
	}
}
