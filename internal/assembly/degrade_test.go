package assembly

import (
	"reflect"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/metrics"
	"focus/internal/testutil"
)

// TestDegradedRehostThenRecover: losing a pinned worker mid-run (kick =
// severed connection, in-process service state gone) forces a re-host,
// but the pool still has a survivor — so the driver must stay
// NON-degraded through the recovery, keep DegradeReason() at its
// healthy value for the whole run, and finish byte-identical to
// the no-fault baseline. The attached metrics registry must record the
// fault path (a lost partition or a logged re-host), and the pool's
// health snapshot the kick.
func TestDegradedRehostThenRecover(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	pool, err := dist.NewLocalPoolOpts(2, NewService, dist.Options{
		CallTimeout: 2 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, k)
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)

	var st TrimStats
	if err := d.TrimTransitive(&st); err != nil {
		t.Fatal(err)
	}
	if d.DegradeReason() != DegradeNone {
		t.Fatalf("degraded before any fault: reason=%v", d.DegradeReason())
	}

	// Sever the pinned worker between phases: its partitions are lost
	// (the local transport rebuilds a fresh service on reconnect) and the
	// next phase must re-host them onto the survivor.
	if !pool.Kick(1) {
		t.Fatal("Kick(1) refused")
	}

	if err := d.TrimContainment(&st); err != nil {
		t.Fatal(err)
	}
	if err := d.TrimErrors(&st); err != nil {
		t.Fatal(err)
	}
	paths, _, err := d.TraverseTimed()
	if err != nil {
		t.Fatal(err)
	}
	got := runOutcome{
		Transitive: st.TransitiveEdges,
		Contained:  st.ContainedNodes,
		False:      st.FalseEdges,
		DeadEnds:   st.DeadEndNodes,
		Paths:      paths,
		Contigs:    d.BuildContigs(paths),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered run diverged from baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if d.DegradeReason() != DegradeNone {
		t.Fatalf("driver degraded despite a surviving worker: reason=%v", d.DegradeReason())
	}

	snap := reg.Snapshot()
	faults := snap.Counters["assembly_partition_lost_total"] +
		snap.Counters["assembly_rehost_total"] +
		snap.Counters["assembly_rehost_failed_total"]
	if faults == 0 {
		t.Fatalf("metrics recorded no fault path after a kicked worker: %v", snap.Counters)
	}
	if snap.Counters["assembly_degraded_total"] != 0 {
		t.Fatalf("degradation counter moved on a non-degraded run: %v", snap.Counters)
	}
	if h := pool.Health(); h.Kicks != 1 {
		t.Fatalf("pool health Kicks = %d, want 1", h.Kicks)
	}
}

// TestDegradedStickyAfterPoolLoss: once the pool is truly unusable the
// fallback is sticky — the reason stays DegradeFailure for every later
// phase (worker-side state missed deltas and can never be trusted again),
// the degradation counter moves exactly once, and the output still
// matches the baseline.
func TestDegradedStickyAfterPoolLoss(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		return &dist.ChaosConfig{Seed: 29 + int64(w), FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, k)
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)

	var st TrimStats
	if err := d.TrimTransitive(&st); err != nil {
		t.Fatal(err)
	}
	if d.DegradeReason() != DegradeFailure {
		t.Fatalf("after losing every worker: reason=%v, want failure fallback", d.DegradeReason())
	}
	// Later phases must observe the SAME sticky state (no flap back to
	// pool execution, no second degradation event).
	if err := d.TrimContainment(&st); err != nil {
		t.Fatal(err)
	}
	if err := d.TrimErrors(&st); err != nil {
		t.Fatal(err)
	}
	paths, _, err := d.TraverseTimed()
	if err != nil {
		t.Fatal(err)
	}
	if d.DegradeReason() != DegradeFailure {
		t.Fatalf("degradation did not stick: reason=%v", d.DegradeReason())
	}
	if n := reg.Counter("assembly_degraded_total").Value(); n != 1 {
		t.Fatalf("assembly_degraded_total = %d, want exactly 1", n)
	}
	got := runOutcome{
		Transitive: st.TransitiveEdges,
		Contained:  st.ContainedNodes,
		False:      st.FalseEdges,
		DeadEnds:   st.DeadEndNodes,
		Paths:      paths,
		Contigs:    d.BuildContigs(paths),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sticky-degraded run diverged from baseline:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDegradeByChoice: a driver built without a pool is degraded by
// configuration, not failure — the distinction the server's status
// surface relies on.
func TestDegradeByChoice(t *testing.T) {
	defer testutil.NoLeaks(t)
	d := chaosPipeline(t, nil, 2)
	if d.DegradeReason() != DegradeNoPool {
		t.Fatalf("pool-less driver: reason=%v, want DegradeNoPool", d.DegradeReason())
	}
	if _, err := fullRun(t, d); err != nil {
		t.Fatal(err)
	}
}
