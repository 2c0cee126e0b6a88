package overlap

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"focus/internal/align"
	"focus/internal/graph"
)

// sortedRecords draws canonical records sorted by (A, B, Kind), one per
// key, with up to three kinds on one read pair — the shape mergeRecords
// emits, parallel edges included.
func sortedRecords(rng *rand.Rand, numReads, pairs int) []Record {
	kinds := []align.Kind{align.KindSuffixPrefix, align.KindPrefixSuffix, align.KindAContainsB}
	var recs []Record
	for i := 0; i < pairs; i++ {
		a, b := int32(rng.Intn(numReads)), int32(rng.Intn(numReads))
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		for _, k := range kinds[:1+rng.Intn(len(kinds))] {
			recs = append(recs, Record{A: a, B: b, Kind: k, Len: int32(50 + rng.Intn(50)), Diag: int32(rng.Intn(100))})
		}
	}
	key := func(x, y Record) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.Kind, y.Kind))
	}
	slices.SortFunc(recs, key)
	return slices.CompactFunc(recs, func(x, y Record) bool { return key(x, y) == 0 })
}

// builderGraph is G0 as the Builder oracle writes it from records in any
// order.
func builderGraph(t testing.TB, numReads int, recs []Record) *graph.Graph {
	b := graph.NewBuilder(numReads)
	for _, r := range recs {
		if err := b.AddEdge(int(r.A), int(r.B), int64(r.Len)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestBuildGraphOrderedMatchesBuilder: the CSR written directly from sorted
// records is Equal to the Builder's, and records in any other order (copied
// into canonical order first) give that same graph, at every worker count.
func TestBuildGraphOrderedMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numReads := 2 + rng.Intn(400)
		recs := sortedRecords(rng, numReads, rng.Intn(8*numReads))
		want := builderGraph(t, numReads, recs)

		shuffled := slices.Clone(recs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		flipped := slices.Clone(recs)
		if len(flipped) > 0 {
			i := rng.Intn(len(flipped))
			flipped[i] = flipped[i].flip() // sorted by key no longer, and A > B
		}
		for _, in := range []struct {
			name string
			recs []Record
		}{{"sorted", recs}, {"shuffled", shuffled}, {"non-canonical", flipped}} {
			for _, w := range []int{1, 2, 8} {
				got, err := BuildGraphParCtx(nil, numReads, in.recs, w)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d: %s records at %d workers: graph differs from the Builder's", seed, in.name, w)
				}
			}
		}
	}
}

// TestBuildGraphOutOfOrderErrors: what the ordered path declines, the
// canonical copy still judges — a read out of range is an error in any
// order, a self-overlap is dropped.
func TestBuildGraphOutOfOrderErrors(t *testing.T) {
	for _, recs := range [][]Record{
		{{A: 0, B: 5, Len: 60}},
		{{A: 1, B: 2, Len: 60}, {A: 0, B: 5, Len: 60}},
		{{A: -1, B: 2, Len: 60}},
	} {
		if _, err := BuildGraph(3, recs); err == nil {
			t.Errorf("%v: out-of-range record accepted", recs)
		}
	}
	g, err := BuildGraph(3, []Record{{A: 0, B: 1, Len: 60}, {A: 1, B: 1, Len: 99}})
	if err != nil || g.NumEdges() != 1 {
		t.Errorf("self-overlap: edges = %v, err = %v; want 1 edge", g, err)
	}
}

func TestBuildGraphParCtxCancelled(t *testing.T) {
	cause := errors.New("stop the build")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	rng := rand.New(rand.NewSource(1))
	recs := sortedRecords(rng, 500, 4000)
	shuffled := slices.Clone(recs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, in := range map[string][]Record{"sorted": recs, "shuffled": shuffled} {
		g, err := BuildGraphParCtx(ctx, 500, in, 2)
		if g != nil || !errors.Is(err, cause) {
			t.Errorf("%s: graph %v, err %v; want no graph and the cancel cause", name, g != nil, err)
		}
	}
}

// TestBuildGraphCanonical: records in the stage's order come back as they
// are (the same slice); a shuffled list with some records flipped and a
// self-overlap added comes back as a sorted copy equal to the original,
// with the same graph, and the caller's slice is left as it was.
func TestBuildGraphCanonical(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numReads := 2 + rng.Intn(300)
		recs := sortedRecords(rng, numReads, rng.Intn(6*numReads))
		want, got, err := BuildGraphCanonical(nil, numReads, recs)
		if err != nil || len(got) != len(recs) || (len(recs) > 0 && &got[0] != &recs[0]) {
			t.Fatalf("seed %d: ordered list not returned as is (err %v)", seed, err)
		}
		in := slices.Clone(recs)
		for i := range in {
			if rng.Intn(3) == 0 {
				in[i] = in[i].flip()
			}
		}
		in = append(in, Record{A: 1, B: 1, Len: 70})
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		before := slices.Clone(in)
		g, got, err := BuildGraphCanonical(nil, numReads, in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, recs) || !g.Equal(want) {
			t.Fatalf("seed %d: canonical copy or its graph differs from the sorted list's", seed)
		}
		if !slices.Equal(in, before) {
			t.Fatalf("seed %d: the caller's slice was changed", seed)
		}
	}
	_, _, err := BuildGraphCanonical(nil, 4, []Record{{A: 0, B: 1}, {A: 3, B: 2}, {A: 2, B: 7}})
	if err == nil || !strings.Contains(err.Error(), "record 2 (2,7)") {
		t.Errorf("out-of-range record: err = %v, want it named", err)
	}
}
