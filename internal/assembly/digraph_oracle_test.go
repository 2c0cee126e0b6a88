package assembly

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/hybrid"
	"focus/internal/overlap"
	"focus/internal/simulate"
)

// buildDiGraphMap is the original map-based BuildDiGraph: one
// map[[2]int32]*agg entry per adjacent pair, a growing vote slice per entry,
// Out/In appended edge by edge and sorted at the end. It is the reference
// the production counting-sort build is pinned to, field for field.
func buildDiGraphMap(h *hybrid.Hybrid, recs []overlap.Record) *DiGraph {
	n := len(h.Nodes)
	g := &DiGraph{
		Contigs: make([][]byte, n),
		Weight:  make([]int64, n),
		Removed: make([]bool, n),
		Out:     make([][]Edge, n),
		In:      make([][]Edge, n),
	}
	readOff := make([]int, len(h.RepOf))
	for i, node := range h.Nodes {
		g.Contigs[i] = node.Contig
		g.Weight[i] = int64(len(node.Members))
		for j, m := range node.Members {
			readOff[m] = node.Offsets[j]
		}
	}

	type agg struct {
		diags  []int
		idents float64
		count  int
	}
	pairs := map[[2]int32]*agg{}
	for _, r := range recs {
		ra, rb := int32(h.RepOf[r.A]), int32(h.RepOf[r.B])
		if ra == rb {
			continue
		}
		lo, hi := ra, rb
		var d int
		if lo < hi {
			d = readOff[r.A] + int(r.Diag) - readOff[r.B]
		} else {
			lo, hi = hi, lo
			d = readOff[r.B] - int(r.Diag) - readOff[r.A]
		}
		key := [2]int32{lo, hi}
		a := pairs[key]
		if a == nil {
			a = &agg{}
			pairs[key] = a
		}
		a.diags = append(a.diags, d)
		a.idents += float64(r.Identity)
		a.count++
	}

	for key, a := range pairs {
		lo, hi := key[0], key[1]
		sort.Ints(a.diags)
		d := a.diags[len(a.diags)/2]
		ident := float32(a.idents / float64(a.count))
		lenLo, lenHi := len(g.Contigs[lo]), len(g.Contigs[hi])
		var e Edge
		switch {
		case d >= 0 && d+lenHi <= lenLo:
			e = Edge{From: lo, To: hi, Diag: int32(d), Len: int32(lenHi), Ident: ident, Contain: true}
		case d <= 0 && -d+lenLo <= lenHi:
			e = Edge{From: hi, To: lo, Diag: int32(-d), Len: int32(lenLo), Ident: ident, Contain: true}
		case d > 0:
			e = Edge{From: lo, To: hi, Diag: int32(d), Len: int32(lenLo - d), Ident: ident}
		default:
			e = Edge{From: hi, To: lo, Diag: int32(-d), Len: int32(lenHi + d), Ident: ident}
		}
		if e.Len <= 0 {
			continue
		}
		g.Out[e.From] = append(g.Out[e.From], e)
		g.In[e.To] = append(g.In[e.To], e)
	}
	for v := range g.Out {
		sort.Slice(g.Out[v], func(i, j int) bool { return g.Out[v][i].To < g.Out[v][j].To })
		sort.Slice(g.In[v], func(i, j int) bool { return g.In[v][i].From < g.In[v][j].From })
	}
	return g
}

// digraphWidths are the vote-pass widths the oracle tests build at.
var digraphWidths = []int{1, 2, 8}

// requireMatchesMap builds the digraph both ways, the counting-sort build at
// every width of digraphWidths, and requires every field deeply equal: Ident
// bits, Diag, Len, Contain, list order and nil-vs-empty.
func requireMatchesMap(t *testing.T, name string, h *hybrid.Hybrid, recs []overlap.Record) *DiGraph {
	t.Helper()
	want := buildDiGraphMap(h, recs)
	var got *DiGraph
	for _, w := range digraphWidths {
		var err error
		got, err = buildDiGraph(h, recs, w)
		if err != nil {
			t.Fatalf("%s at width %d: %v", name, w, err)
		}
		requireSameDiGraph(t, fmt.Sprintf("%s at width %d", name, w), got, want)
	}
	return got
}

// requireSameDiGraph requires got deeply equal to the map oracle's want.
func requireSameDiGraph(t *testing.T, name string, got, want *DiGraph) {
	t.Helper()
	for _, f := range []struct {
		field     string
		got, want any
	}{
		{"Out", got.Out, want.Out}, {"In", got.In, want.In},
		{"Contigs", got.Contigs, want.Contigs}, {"Weight", got.Weight, want.Weight},
		{"Removed", got.Removed, want.Removed},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s diverged from the map oracle", name, f.field)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// randomHybrid draws a hybrid directly — random clusters, layout offsets,
// contig lengths and records, several records per read pair — so the
// containment, zero-length and many-vote branches all occur, which pipeline
// hybrids over clean tilings rarely reach.
func randomHybrid(t *testing.T, seed int64) (*hybrid.Hybrid, []overlap.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	numReads := 40 + rng.Intn(200)
	numNodes := 2 + rng.Intn(30)
	h := &hybrid.Hybrid{Nodes: make([]hybrid.Node, numNodes), RepOf: make([]int, numReads)}
	for v := range h.RepOf {
		r := rng.Intn(numNodes)
		if v < numNodes {
			r = v // no empty cluster
		}
		h.RepOf[v] = r
		h.Nodes[r].Members = append(h.Nodes[r].Members, v)
		h.Nodes[r].Offsets = append(h.Nodes[r].Offsets, rng.Intn(300))
	}
	nw := make([]int64, numNodes)
	for i := range h.Nodes {
		h.Nodes[i].Contig = make([]byte, 40+rng.Intn(400))
		nw[i] = int64(len(h.Nodes[i].Members))
	}
	recs := make([]overlap.Record, 0, numReads*6)
	for len(recs) < cap(recs) {
		a, b := int32(rng.Intn(numReads)), int32(rng.Intn(numReads))
		if a == b {
			continue
		}
		for c := 1 + rng.Intn(3); c > 0; c-- {
			recs = append(recs, overlap.Record{
				A: a, B: b, Len: int32(50 + rng.Intn(50)),
				Identity: 0.9 + rng.Float32()/10, Diag: int32(rng.Intn(500) - 250),
			})
		}
	}
	g0, err := overlap.BuildGraph(numReads, recs)
	if err != nil {
		t.Fatal(err)
	}
	h.G, _ = graph.ContractWithWeightsCtx(nil, g0, h.RepOf, nw, 1)
	return h, recs
}

// pipelineHybrid runs reads through overlap -> graph -> coarsen -> hybrid.
func pipelineHybrid(tb testing.TB, reads []dna.Read, subsets int) (*hybrid.Hybrid, []overlap.Record) {
	tb.Helper()
	recs, err := overlap.FindOverlaps(reads, subsets, overlap.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	g0, err := overlap.BuildGraph(len(reads), recs)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := hybrid.Build(coarsen.Multilevel(g0, coarsen.DefaultOptions()), reads, recs, hybrid.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return h, recs
}

// paperReads samples the analogue of the paper's data set id, adapters off
// (the stages downstream of preprocessing see trimmed reads).
func paperReads(tb testing.TB, id int) []dna.Read {
	tb.Helper()
	spec, err := simulate.PaperDataSet(id, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	return sampleReads(tb, spec, id, 8)
}

// sampleReads samples spec at the given coverage with data set id's error
// profile.
func sampleReads(tb testing.TB, spec simulate.CommunitySpec, id int, coverage float64) []dna.Read {
	tb.Helper()
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		tb.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(id, coverage)
	rcfg.AdapterLen = 0
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		tb.Fatal(err)
	}
	return rs.Reads
}

func TestBuildDiGraphMatchesMapOracle(t *testing.T) {
	edges := 0
	for seed := int64(0); seed < 40; seed++ {
		h, recs := randomHybrid(t, seed)
		g := requireMatchesMap(t, "random hybrid", h, recs)
		for v := range g.Out {
			edges += len(g.Out[v])
		}
	}
	if edges == 0 {
		t.Fatal("the random hybrids produced no edge at all")
	}
	for seed := int64(0); seed < 3; seed++ {
		genome := randGenome(900+seed, 3000)
		copy(genome[2400:], genome[300:700]) // a repeat: clusters that fail layout
		h, recs := pipelineHybrid(t, tilingReads(genome, 100, 20+int(seed)*5), 2)
		requireMatchesMap(t, "tiling", h, recs)
	}
	for _, id := range []int{1, 2} {
		h, recs := pipelineHybrid(t, paperReads(t, id), 4)
		requireMatchesMap(t, "paper data set analogue", h, recs)
	}
}

// TestBuildDiGraphRejectsInconsistentInput: each input the map build
// answered with an index panic or a silently mis-bucketed edge is an error
// naming what is wrong, at every vote-pass width; with two bad records in
// different chunks, the lower index is the one named.
func TestBuildDiGraphRejectsInconsistentInput(t *testing.T) {
	h, recs := randomHybrid(t, 1)
	crossing := -1
	for ri, r := range recs {
		if h.RepOf[r.A] != h.RepOf[r.B] {
			crossing = ri
			break
		}
	}
	if crossing < 0 {
		t.Fatal("no crossing record")
	}
	with := func(ri int, r overlap.Record) []overlap.Record {
		out := append([]overlap.Record(nil), recs...)
		out[ri] = r
		return out
	}
	badRep := append([]int(nil), h.RepOf...)
	badRep[recs[crossing].A] = len(h.Nodes)
	badNodes := append([]hybrid.Node(nil), h.Nodes...)
	badNodes[0].Members = []int{len(h.RepOf)}
	// Records 1 and last lie in different chunks at every width above 1.
	last := len(recs) - 1
	twoBad := with(1, overlap.Record{A: 0, B: int32(len(h.RepOf))})
	twoBad[last] = overlap.Record{A: -1, B: 0}
	// A graph over the same nodes that joins nothing.
	edgeless, _ := graph.ContractWithWeightsCtx(nil, graph.NewBuilder(len(h.RepOf)).Build(), h.RepOf, make([]int64, len(h.Nodes)), 1)
	short := graph.NewBuilder(len(h.Nodes) - 1).Build()
	for _, tc := range []struct {
		name string
		h    hybrid.Hybrid
		recs []overlap.Record
		want string
	}{
		{"A out of range", *h, with(3, overlap.Record{A: int32(len(h.RepOf)), B: 0}), "record 3 "},
		{"B out of range", *h, with(5, overlap.Record{A: 0, B: int32(len(h.RepOf)) + 7}), "record 5 "},
		{"negative read", *h, with(2, overlap.Record{A: -1, B: 0}), "record 2 "},
		{"RepOf outside the nodes", hybrid.Hybrid{Nodes: h.Nodes, RepOf: badRep, G: h.G}, recs, "record " + strconv.Itoa(crossing) + " "},
		{"member outside RepOf", hybrid.Hybrid{Nodes: badNodes, RepOf: h.RepOf, G: h.G}, recs, "hybrid node 0 "},
		{"nil graph", hybrid.Hybrid{Nodes: h.Nodes, RepOf: h.RepOf}, recs, "no graph"},
		{"node count mismatch", hybrid.Hybrid{Nodes: h.Nodes, RepOf: h.RepOf, G: short}, recs, "hybrid nodes"},
		{"pair absent from G", hybrid.Hybrid{Nodes: h.Nodes, RepOf: h.RepOf, G: edgeless}, recs, "record " + strconv.Itoa(crossing) + " "},
		{"bad last record", *h, with(last, overlap.Record{A: -1, B: 0}), "record " + strconv.Itoa(last) + " "},
		{"bad records 1 and last", *h, twoBad, "record 1 "},
	} {
		for _, w := range digraphWidths {
			g, err := buildDiGraph(&tc.h, tc.recs, w)
			if err == nil || g != nil {
				t.Errorf("%s at width %d: accepted (err %v)", tc.name, w, err)
				continue
			}
			if !strings.HasPrefix(err.Error(), "assembly: digraph: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s at width %d: err = %q, want an assembly: digraph: error containing %q", tc.name, w, err, tc.want)
			}
		}
	}
}

// TestDiGraphCloneIsIndependent: trimming a clone — removals, and an append
// that outgrows a carved list — leaves the template exactly as built.
func TestDiGraphCloneIsIndependent(t *testing.T) {
	h, recs := randomHybrid(t, 2)
	tmpl, err := BuildDiGraph(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	c := tmpl.Clone()
	if !reflect.DeepEqual(c.Out, tmpl.Out) || !reflect.DeepEqual(c.In, tmpl.In) ||
		!reflect.DeepEqual(c.Weight, tmpl.Weight) || !reflect.DeepEqual(c.Removed, tmpl.Removed) {
		t.Fatal("clone differs from its template")
	}
	for v := range c.Out {
		if len(c.Out[v]) > 0 {
			e := c.Out[v][0]
			c.RemoveEdge(e.From, e.To)
		}
		c.Out[v] = append(c.Out[v], Edge{From: int32(v), To: int32(v)})
		if v%3 == 0 {
			c.RemoveNode(int32(v))
		}
		c.Weight[v]++
	}
	fresh, err := BuildDiGraph(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tmpl.Out, fresh.Out) || !reflect.DeepEqual(tmpl.In, fresh.In) ||
		!reflect.DeepEqual(tmpl.Weight, fresh.Weight) || !reflect.DeepEqual(tmpl.Removed, fresh.Removed) {
		t.Fatal("mutating a clone changed the template")
	}
}
