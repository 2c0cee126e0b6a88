package overlap

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"focus/internal/align"
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

// TestBuildGraphOrderedMatchesBuilder: the CSR written directly from sorted
// records is Equal to the Builder's, and records in any other order (taking
// the Builder fallback) give that same graph, at every worker count.
func TestBuildGraphOrderedMatchesBuilder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numReads := 2 + rng.Intn(400)
		recs := sortedRecords(rng, numReads, rng.Intn(8*numReads))
		want, err := buildGraphBuilder(numReads, recs)
		if err != nil {
			t.Fatal(err)
		}

		shuffled := slices.Clone(recs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		flipped := slices.Clone(recs)
		if len(flipped) > 0 {
			i := rng.Intn(len(flipped))
			flipped[i] = flipped[i].Flip() // sorted by key no longer, and A > B
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
// Builder still judges — a read out of range is an error in any order, a
// self-overlap is dropped.
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
