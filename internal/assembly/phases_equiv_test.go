package assembly

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomPhaseSubgraph builds a randomized Subgraph mixing structure the
// scans care about (genome-consistent overlap edges whose alignments
// verify, plus tips and bubbles) with adversarial noise: containment
// edges, garbage diagonals, duplicate edges, self-loops, ids that appear
// only as edge endpoints, non-local ghosts, duplicate ids (and so
// duplicate Local entries) and nodes of another partition.
func randomPhaseSubgraph(rng *rand.Rand) *Subgraph {
	bases := []byte("ACGT")
	n := 2 + rng.Intn(28)
	genome := make([]byte, 40*n+240)
	for i := range genome {
		genome[i] = bases[rng.Intn(4)]
	}
	sub := &Subgraph{Part: int32(rng.Intn(3))}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(rng.Intn(2 * n)) // sparse ids, duplicates possible
	}
	starts := make([]int, n)
	for i := 0; i < n; i++ {
		var contig []byte
		starts[i] = rng.Intn(40 * n)
		if rng.Intn(8) != 0 { // some nodes ship no contig
			l := 30 + rng.Intn(180)
			contig = genome[starts[i] : starts[i]+l]
		}
		part := sub.Part
		if rng.Intn(6) == 0 {
			part++ // shipped as a neighbour of another partition
		}
		sub.Nodes = append(sub.Nodes, WireNode{
			ID:     ids[i],
			Part:   part,
			Weight: int64(rng.Intn(20)),
			Contig: contig,
		})
		if rng.Intn(3) != 0 {
			sub.Local = append(sub.Local, ids[i])
		}
	}
	m := rng.Intn(5 * n)
	for e := 0; e < m; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		from, to := ids[i], ids[j]
		diag := int32(starts[j] - starts[i]) // genome-consistent placement
		switch rng.Intn(4) {
		case 0:
			diag = int32(rng.Intn(200) - 100) // garbage placement
		case 1:
			to = from + 1000 // endpoint absent from Nodes
		}
		sub.Edges = append(sub.Edges, Edge{
			From:    from,
			To:      to,
			Diag:    diag,
			Len:     int32(rng.Intn(160)),
			Ident:   float32(0.85 + 0.15*rng.Float64()),
			Contain: rng.Intn(7) == 0,
		})
		if rng.Intn(12) == 0 { // exact duplicate
			sub.Edges = append(sub.Edges, sub.Edges[len(sub.Edges)-1])
		}
	}
	return sub
}

func randomPhaseConfig(rng *rand.Rand) Config {
	cfg := DefaultConfig()
	cfg.DiagTolerance = rng.Intn(24)
	cfg.MinEdgeOverlap = 20 + rng.Intn(60)
	cfg.MinEdgeIdentity = 0.7 + 0.3*rng.Float64()
	cfg.Band = 4 + rng.Intn(16)
	cfg.MaxTipNodes = rng.Intn(5)
	cfg.MinTipLen = rng.Intn(500)
	return cfg
}

// TestPhaseEnginesEquivalence pins the CSR scans to the map oracle:
// on randomized subgraphs, TransitiveEdges, ContainmentScan and ErrorScan
// must return deeply equal results (including nil-vs-empty) at workers
// 1, 2 and 8.
func TestPhaseEnginesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 250; iter++ {
		sub := randomPhaseSubgraph(rng)
		cfg := randomPhaseConfig(rng)
		t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
			checkScansMatchOracle(t, sub, cfg, 1, 2, 8)
		})
	}
}

// TestPhaseEnginesDegenerate pins the scans on edge-case subgraphs the
// randomized generator rarely hits exactly: empty everything, edges with
// no nodes, all-containment adjacency, a chain through ghost endpoints,
// duplicate Local ids and a Local node of another partition, and a bubble
// whose branches are reached from both sides.
func TestPhaseEnginesDegenerate(t *testing.T) {
	chain := []Edge{{From: 1, To: 2, Diag: 4, Len: 10}, {From: 2, To: 3, Diag: 4, Len: 10}, {From: 3, To: 4, Diag: 4, Len: 10}}
	subs := []*Subgraph{
		{},
		{Local: []int32{1, 2, 3}},
		{Local: []int32{5}, Edges: []Edge{{From: 5, To: 9, Diag: 4, Len: 10}}},
		{
			Local: []int32{0, 1},
			Nodes: []WireNode{{ID: 0, Contig: []byte("ACGTACGT")}, {ID: 1, Contig: []byte("ACGTACGT")}},
			Edges: []Edge{
				{From: 0, To: 1, Diag: 0, Len: 8, Contain: true},
				{From: 1, To: 0, Diag: 0, Len: 8, Contain: true},
			},
		},
		// Ghost endpoints 0 and 4 frame a local chain no node ships; the
		// walk from 3 grows it leftwards two steps.
		{Local: []int32{3, 2, 1}, Edges: append([]Edge{{From: 0, To: 1, Diag: 4, Len: 10}}, chain...)},
		// Duplicate Local ids; node 3 belongs to partition 1.
		{
			Part:  0,
			Local: []int32{2, 2, 3, 1, 3},
			Nodes: []WireNode{{ID: 1}, {ID: 2}, {ID: 3, Part: 1}, {ID: 4}},
			Edges: chain,
		},
		// Every neighbourhood containment-only: no live arcs anywhere.
		{
			Local: []int32{1, 2, 3},
			Nodes: []WireNode{{ID: 1, Weight: 5}, {ID: 2, Weight: 5}, {ID: 3, Weight: 5}},
			Edges: []Edge{{From: 1, To: 2, Contain: true}, {From: 1, To: 3, Contain: true}, {From: 2, To: 3, Contain: true}},
		},
		// A bubble 0 -> {1, 2} -> 3 and a fork 0 -> 5, all branches
		// local: each allele pair is reached from both of its branches.
		{
			Local: []int32{1, 5, 2, 0, 3},
			Nodes: []WireNode{
				{ID: 0, Weight: 4, Contig: []byte("ACGTACGTTTGACCAGT")},
				{ID: 1, Weight: 4, Contig: []byte("TTGACCAGTACGGATCA")},
				{ID: 2, Weight: 3, Contig: []byte("TTGACCAGTACGCATCA")},
				{ID: 3, Weight: 4, Contig: []byte("ACGGATCAGGCTTAACG")},
				{ID: 5, Weight: 2, Contig: []byte("TTGACCAGTACGGTTCA")},
			},
			Edges: []Edge{
				{From: 0, To: 1, Diag: 8, Len: 9}, {From: 0, To: 2, Diag: 8, Len: 9},
				{From: 0, To: 5, Diag: 8, Len: 9},
				{From: 1, To: 3, Diag: 9, Len: 8}, {From: 2, To: 3, Diag: 9, Len: 8},
			},
		},
	}
	for i, sub := range subs {
		t.Run(fmt.Sprintf("sub%d", i), func(t *testing.T) {
			checkScansMatchOracle(t, sub, DefaultConfig(), 0)
		})
	}
}

// TestDedupePairsScratch pins the packed-key dedupe against a simple
// reference on randomized inputs, including the nil-preserving contract
// and negative ids (the sign-bias of packPair).
func TestDedupePairsScratch(t *testing.T) {
	var keys []uint64
	if got := dedupePairs(nil, &keys); got != nil {
		t.Fatalf("dedupePairs(nil) = %v, want nil", got)
	}
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(40)
		pairs := make([]EdgePair, n)
		seen := map[EdgePair]bool{}
		for i := range pairs {
			pairs[i] = EdgePair{
				From: int32(rng.Intn(9) - 4),
				To:   int32(rng.Intn(9) - 4),
			}
			seen[pairs[i]] = true
		}
		var want []EdgePair
		for p := range seen {
			want = append(want, p)
		}
		// Reference order: signed (From, To).
		for i := 0; i < len(want); i++ {
			for j := i + 1; j < len(want); j++ {
				if want[j].From < want[i].From ||
					(want[j].From == want[i].From && want[j].To < want[i].To) {
					want[i], want[j] = want[j], want[i]
				}
			}
		}
		got := dedupePairs(pairs, &keys)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: dedupePairs = %v, want %v", iter, got, want)
		}
	}
}
