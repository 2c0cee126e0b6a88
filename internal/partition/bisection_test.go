package partition

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"focus/internal/coarsen"
	"focus/internal/graph"
	"focus/internal/simulate"
)

// sameResult reports how got differs from want: labels on any level, or
// the number of step and k-way task times.
func sameResult(got, want *Result) error {
	if len(got.LevelLabels) != len(want.LevelLabels) {
		return fmt.Errorf("%d levels, want %d", len(got.LevelLabels), len(want.LevelLabels))
	}
	for i := range want.LevelLabels {
		if !slices.Equal(got.LevelLabels[i], want.LevelLabels[i]) {
			return fmt.Errorf("level %d labels differ", i)
		}
	}
	if len(got.StepTaskTimes) != len(want.StepTaskTimes) || len(got.KWayTimes) != len(want.KWayTimes) {
		return fmt.Errorf("%d steps and %d k-way times, want %d and %d",
			len(got.StepTaskTimes), len(got.KWayTimes), len(want.StepTaskTimes), len(want.KWayTimes))
	}
	for s, tasks := range got.StepTaskTimes {
		if len(tasks) != 1<<s {
			return fmt.Errorf("step %d has %d task times", s, len(tasks))
		}
	}
	return nil
}

// TestBisectionPrefixIndependentOfK: without the k-way refinement, the
// labels at every k = 2^s below K are the K labels mod k, on every level
// of a hybrid and a multilevel set at procs 1, 2 and 8. A Bisection
// serves every k of a sweep from one prefix because of this.
func TestBisectionPrefixIndependentOfK(t *testing.T) {
	spec, err := simulate.PaperDataSet(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hyb, ml := pipelineSets(t, spec, 2, 8)
	for _, s := range []struct {
		name string
		set  *graph.Set
	}{{"hybrid", hyb}, {"multilevel", ml}} {
		maxK := 1
		for maxK*2 <= min(64, s.set.Coarsest().NumNodes()) {
			maxK *= 2
		}
		if maxK < 8 {
			t.Fatalf("%s: coarsest level has %d nodes", s.name, s.set.Coarsest().NumNodes())
		}
		for _, procs := range []int{1, 2, 8} {
			opt := DefaultOptions(maxK)
			opt.Procs, opt.SkipKWay = procs, true
			deep, err := PartitionSet(s.set, opt)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < maxK; k *= 2 {
				opt.K = k
				res, err := PartitionSet(s.set, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, labels := range res.LevelLabels {
					for v, l := range labels {
						if want := deep.LevelLabels[i][v] % int32(k); l != want {
							t.Fatalf("%s procs %d k=%d: level %d node %d has label %d, the k=%d labels mod k give %d",
								s.name, procs, k, i, v, l, maxK, want)
						}
					}
				}
			}
		}
	}
}

// TestBisectionReuseMatchesFresh: one Bisection swept ascending,
// descending, in a mixed order and concurrently gives at every k what a
// throwaway one gives, including the step task times it reports.
func TestBisectionReuseMatchesFresh(t *testing.T) {
	set := coarsen.Multilevel(ringOfClusters(16, 12, 60), coarsen.DefaultOptions())
	ks := []int{1, 2, 4, 8, 16}
	fresh := map[int]*Result{}
	for _, k := range ks {
		opt := DefaultOptions(k)
		opt.Procs = 2
		res, err := PartitionSet(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh[k] = res
	}
	check := func(b *Bisection, k int) error {
		opt := DefaultOptions(k)
		opt.Procs = 2
		res, err := b.Partition(nil, opt)
		if err != nil {
			return err
		}
		if err := sameResult(res, fresh[k]); err != nil {
			return fmt.Errorf("k=%d: %v", k, err)
		}
		return nil
	}
	for _, order := range [][]int{{1, 2, 4, 8, 16}, {16, 8, 4, 2, 1}, {4, 16, 2, 8, 1}} {
		b := NewBisection(set, DefaultOptions(2))
		for _, k := range order {
			if err := check(b, k); err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
		}
		if b.Steps() != 4 {
			t.Fatalf("order %v: %d steps stored, want 4", order, b.Steps())
		}
	}
	b := NewBisection(set, DefaultOptions(2))
	errs := make([]error, 2*len(ks))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = check(b, ks[len(ks)-1-i%len(ks)])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent: %v", err)
		}
	}
}

// TestBisectionKeyedByOptions: a Bisection is for one set, seed, balance
// bound and early stop; Partition refuses options it was not built for.
func TestBisectionKeyedByOptions(t *testing.T) {
	set := coarsen.Multilevel(ringOfClusters(8, 10, 61), coarsen.DefaultOptions())
	opt := DefaultOptions(4)
	b := NewBisection(set, opt)
	if !b.For(set, opt) {
		t.Fatal("a Bisection is not for its own set and options")
	}
	other := set.Levels[0]
	for name, o := range map[string]func(*Options){
		"seed":      func(o *Options) { o.Seed++ },
		"balance":   func(o *Options) { o.Balance = 1.5 },
		"earlyStop": func(o *Options) { o.EarlyStop = 7 },
	} {
		changed := opt
		o(&changed)
		if b.For(set, changed) {
			t.Errorf("%s: For accepts changed options", name)
		}
		if _, err := b.Partition(nil, changed); err == nil {
			t.Errorf("%s: Partition accepted changed options", name)
		}
	}
	if b.For(singleLevelSet(other), opt) {
		t.Error("For accepts another set")
	}
	// K, Procs and SkipKWay are per call; a zero Balance or EarlyStop
	// means the default.
	perCall := opt
	perCall.K, perCall.Procs, perCall.SkipKWay = 8, 3, true
	perCall.Balance, perCall.EarlyStop = 0, 0
	if !b.For(set, perCall) {
		t.Error("For rejects options that differ only per call or by defaults")
	}
}

// TestBisectionCancelKeepsCompletedSteps: a cancel that lands inside a
// bisection step leaves the Bisection holding only the steps completed
// before it, and a later call completes the sweep as a fresh one would.
func TestBisectionCancelKeepsCompletedSteps(t *testing.T) {
	set := coarsen.Multilevel(ringOfClusters(16, 12, 62), coarsen.DefaultOptions())
	opt := DefaultOptions(16)
	opt.Procs = 1 // regions run in order, so the cancel point is exact
	// Count the pair selections of the first two steps.
	calls := 0
	swapSelector = func(g *graph.Graph, sc *klScratch) (int, int, int64, bool) {
		calls++
		return selectSwap(g, sc)
	}
	defer func() { swapSelector = selectSwap }()
	twoSteps := opt
	twoSteps.K = 4
	if _, err := NewBisection(set, opt).Partition(nil, twoSteps); err != nil {
		t.Fatal(err)
	}
	within := calls + 1 // the first selection of step 2's first region

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	stop := fmt.Errorf("stop")
	calls = 0
	swapSelector = func(g *graph.Graph, sc *klScratch) (int, int, int64, bool) {
		if calls++; calls == within {
			cancel(stop)
		}
		return selectSwap(g, sc)
	}
	b := NewBisection(set, opt)
	if _, err := b.Partition(ctx, opt); err != stop {
		t.Fatalf("canceled Partition returned %v, want the cause", err)
	}
	if b.Steps() != 2 {
		t.Fatalf("%d steps stored after a cancel in step 2, want 2", b.Steps())
	}
	swapSelector = selectSwap
	for _, k := range []int{4, 16} {
		o := opt
		o.K = k
		want, err := PartitionSet(set, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Partition(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("k=%d after the cancel: %v", k, err)
		}
	}
}
