package assembly

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/testutil"
)

// TestRehostAfterPinnedWorkerLoss is the tentpole acceptance test: in the
// stateful protocol a pinned worker dies mid-run (after a varying healthy
// prefix, so the loss lands during Load, a trim phase, or traversal
// depending on the sweep point), its partitions are re-hosted onto the
// survivor from the master's authoritative graph, and the run completes
// WITHOUT falling back to local execution — byte-identical to a no-fault
// baseline.
func TestRehostAfterPinnedWorkerLoss(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	for healthy := 0; healthy <= 6; healthy++ {
		t.Run(fmt.Sprintf("healthy=%d", healthy), func(t *testing.T) {
			hang := dist.ChaosConfig{
				Seed:      11,
				FirstSafe: 1 + healthy, // the handshake ack, then healthy responses before the worker wedges
				HangProb:  1,
				HangFor:   2 * time.Second,
			}
			pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
				CallTimeout: 200 * time.Millisecond,
				MaxFailures: 1,
				Logf:        t.Logf,
			}, func(w int) *dist.ChaosConfig {
				if w == 1 {
					return &hang
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			d := chaosPipeline(t, pool, k)
			got, err := fullRun(t, d)
			if err != nil {
				t.Fatalf("stateful run with dying pinned worker failed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("re-hosted run diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
			}
			if d.DegradeReason() != DegradeNone {
				t.Fatalf("driver fell back to local mode (reason: %v) despite a surviving worker", d.DegradeReason())
			}
			if r := d.DegradeReason(); r != DegradeNone {
				t.Fatalf("DegradeReason = %v, want DegradeNone", r)
			}
			// Every partition must have ended up placed on a healthy worker.
			for p, w := range d.placement {
				if !pool.Healthy(w) {
					t.Fatalf("partition %d left placed on unhealthy worker %d", p, w)
				}
			}
		})
	}
}

// TestRehostAllWorkersLostFallsBack: when NO worker survives, the stateful
// protocol's terminal safety net — sticky local fallback — still produces
// baseline output, and the driver records that it degraded by failure, not
// by choice.
func TestRehostAllWorkersLostFallsBack(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		return &dist.ChaosConfig{Seed: 13 + int64(w), FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, k)
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("stateful run with all workers dead failed (terminal fallback broken): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("local fallback diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if d.DegradeReason() != DegradeFailure {
		t.Fatalf("reason=%v, want degraded by failure", d.DegradeReason())
	}
}

// TestRebalanceAfterReconnect: a reconnect signal plus a skewed placement
// table must trigger an elective rebalance at the next phase boundary, and
// the rebalanced run must still produce baseline output. The skew is
// injected by corrupting the placement table directly — which also proves
// the self-healing property: stale placement entries are repaired through
// the epoch-fenced re-host path, never trusted blindly.
func TestRebalanceAfterReconnect(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 4
	want := healthyBaseline(t, k)

	pool, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d := chaosPipeline(t, pool, k)
	if err := d.ensureLoaded(nil); err != nil {
		t.Fatal(err)
	}

	// Pretend a past failure crowded everything onto worker 0 (entries for
	// partitions really held by worker 1 are now stale lies), then deliver
	// the reconnect signal the pool hook would send.
	for p := range d.placement {
		d.placement[p] = 0
	}
	atomic.StoreInt32(&d.rebalanceFlag, 1)

	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("run after forced rebalance failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebalanced run diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	// The elective rebalance must have spread partitions back across both
	// workers (max-min spread < 2 on 4 partitions / 2 workers = 2+2).
	counts := map[int]int{}
	for _, w := range d.placement {
		counts[w]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("placement after rebalance = %v (counts %v), want 2 partitions per worker", d.placement, counts)
	}
	if d.DegradeReason() != DegradeNone {
		t.Fatal("driver degraded during elective rebalance")
	}
}

// TestRehostRoundsExhausted: when every healthy worker keeps failing Load,
// the re-host loop gives up after a bounded number of rounds instead of
// spinning, and the terminal fallback still completes the run.
func TestRehostRoundsExhausted(t *testing.T) {
	defer testutil.NoLeaks(t)
	const k = 2
	want := healthyBaseline(t, k)

	// Workers answer the first two responses (connection setup / early
	// Loads) then wedge forever; reconnects are off, so once both are
	// evicted the pool is unusable and the driver must fall back.
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
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("run failed instead of falling back: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback run diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if d.DegradeReason() != DegradeFailure {
		t.Fatalf("reason=%v, want degraded by failure", d.DegradeReason())
	}
}
