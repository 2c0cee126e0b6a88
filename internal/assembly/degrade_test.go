package assembly

import (
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/metrics"
	"focus/internal/testutil"
)

// countWrites counts the writes on a worker's end of a connection.
type countWrites struct {
	net.Conn
	n *atomic.Int64
}

func (c countWrites) Write(b []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(b)
}

// TestDegradedRehostThenRecover: losing a pinned worker mid-run (a chaos
// reset on its first response after the transitive phase, in-process
// service state gone) forces a re-host, but the pool still has a
// survivor — so the driver must stay NON-degraded through the recovery,
// keep running phases on the pool for the whole run, and finish
// byte-identical to the no-fault baseline. The attached metrics registry
// must record the fault path (a lost partition or a logged re-host), and
// the pool's health snapshot the eviction.
func TestDegradedRehostThenRecover(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	// A healthy probe run counts worker 1's writes on the run's own
	// connection (the handshake ack, its Loads and its transitive Phase
	// replies), so the reset lands on its first write after the
	// transitive phase. The fleet holds none: worker 1's first connection
	// is the run's.
	var writes atomic.Int64
	var conns1 atomic.Int32
	probe, err := dist.NewLocalPoolOpts(2, NewService, dist.Options{
		WrapConn: func(w int, c net.Conn) net.Conn {
			if w == 1 && conns1.Add(1) == 1 {
				return countWrites{c, &writes}
			}
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pd := chaosPipeline(t, probe, k)
	var pst TrimStats
	if err := pd.TrimTransitive(&pst); err != nil {
		t.Fatal(err)
	}
	pd.Close()
	probe.Close()

	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{MaxFailures: 1, Logf: t.Logf},
		func(w int) *dist.ChaosConfig {
			if w == 1 {
				return &dist.ChaosConfig{Seed: 1, FirstSafe: int(writes.Load()), ResetProb: 1}
			}
			return nil
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
	if d.localOnly {
		t.Fatal("degraded before any fault")
	}

	// The next phase's first reply from worker 1 resets its connection:
	// its partitions are lost and must be re-hosted onto the survivor.
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
	if d.localOnly {
		t.Fatal("driver degraded despite a surviving worker")
	}

	snap := reg.Snapshot()
	faults := snap.Counters["assembly_partition_lost_total"] +
		snap.Counters["assembly_rehost_total"] +
		snap.Counters["assembly_rehost_failed_total"]
	if faults == 0 {
		t.Fatalf("metrics recorded no fault path after a reset worker: %v", snap.Counters)
	}
	if snap.Counters["assembly_degraded_total"] != 0 {
		t.Fatalf("degradation counter moved on a non-degraded run: %v", snap.Counters)
	}
	if h := pool.Health(); h.Evictions != 1 {
		t.Fatalf("pool health Evictions = %d, want 1", h.Evictions)
	}
}

// TestDegradedStickyAfterPoolLoss: once the pool is truly unusable the
// fallback is sticky — the driver stays local-only for every later
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
	if !d.localOnly {
		t.Fatal("after losing every worker: driver still on the pool, want failure fallback")
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
	if !d.localOnly {
		t.Fatal("degradation did not stick")
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
	if !d.localOnly || d.Pool != nil {
		t.Fatalf("pool-less driver: localOnly=%v, Pool=%v, want local by choice", d.localOnly, d.Pool)
	}
	if _, err := fullRun(t, d); err != nil {
		t.Fatal(err)
	}
}
