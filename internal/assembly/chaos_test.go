package assembly

import (
	"reflect"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/testutil"
)

// runOutcome captures everything a full Trim+TraverseTimed+BuildContigs run
// produces that downstream stages consume.
type runOutcome struct {
	Transitive, Contained, False, DeadEnds int
	Paths                                  [][]int32
	Contigs                                [][]byte
}

func fullRun(t *testing.T, d *Driver) (runOutcome, error) {
	t.Helper()
	st, err := d.Trim()
	if err != nil {
		return runOutcome{}, err
	}
	paths, _, err := d.TraverseTimed()
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{
		Transitive: st.TransitiveEdges,
		Contained:  st.ContainedNodes,
		False:      st.FalseEdges,
		DeadEnds:   st.DeadEndNodes,
		Paths:      paths,
		Contigs:    d.BuildContigs(paths),
	}, nil
}

// chaosPipeline returns a fresh driver over the given pool for the shared
// test genome. Every caller gets an identical starting graph, so outcomes
// are directly comparable.
func chaosPipeline(t *testing.T, pool *dist.Pool, k int) *Driver {
	t.Helper()
	genome := randGenome(91, 3000)
	reads := tilingReads(genome, 100, 30)
	dg, labels, _ := buildPipeline(t, reads, k)
	d, err := NewDriver(pool, dg, labels, k, DefaultConfig())
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	return d
}

func healthyBaseline(t *testing.T, k int) runOutcome {
	t.Helper()
	pool, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	out, err := fullRun(t, chaosPipeline(t, pool, k))
	if err != nil {
		t.Fatalf("healthy baseline failed: %v", err)
	}
	return out
}

// TestChaosHungWorkerReschedules is the acceptance test for the
// fault-tolerant scheduler: one of two workers hangs on every response.
// With the old static t%Size assignment (and no deadlines) the first phase
// blocked forever; now the hung worker's task times out, the worker is
// evicted, the task reschedules onto the survivor, and the run's output is
// identical to an all-healthy run.
func TestChaosHungWorkerReschedules(t *testing.T) {
	const k = 4
	want := healthyBaseline(t, k)
	defer testutil.NoLeaks(t)

	hang := dist.ChaosConfig{Seed: 3, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
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
		t.Fatalf("run with hung worker failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded run diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if n := pool.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d, want 1 (hung worker evicted, survivor alive)", n)
	}
	if d.DegradeReason() != DegradeNone {
		t.Fatal("driver degraded to local mode despite a surviving worker")
	}
}

// TestChaosAllWorkersDownFallsBackLocal checks graceful degradation: with
// every worker hung, phases fall back to master-side execution and still
// produce the baseline output.
func TestChaosAllWorkersDownFallsBackLocal(t *testing.T) {
	const k = 4
	want := healthyBaseline(t, k)
	defer testutil.NoLeaks(t)

	hang := dist.ChaosConfig{Seed: 5, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig { c := hang; c.Seed += int64(w); return &c })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	got, err := fullRun(t, chaosPipeline(t, pool, k))
	if err != nil {
		t.Fatalf("run with all workers hung failed (fallback broken): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("local fallback diverged from healthy baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if n := pool.NumHealthy(); n != 0 {
		t.Fatalf("NumHealthy = %d, want 0", n)
	}
}

// TestChaosSweep drives full multi-phase runs through a mix of seeded
// hangs, mid-message resets, and latency on every worker connection. The
// contract: each run either matches the healthy baseline or fails with a
// clean error — it never deadlocks and never silently returns wrong
// results.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow; skipped with -short")
	}
	const k = 4
	want := healthyBaseline(t, k)

	for seed := int64(1); seed <= 8; seed++ {
		t.Run("stateful/seed", func(t *testing.T) {
			defer testutil.NoLeaks(t)
			cfg := dist.ChaosConfig{
				Seed:        seed,
				FirstSafe:   1, // the handshake ack: a worker that cannot connect is not in the pool
				HangProb:    0.05,
				HangFor:     2 * time.Second,
				ResetProb:   0.05,
				LatencyProb: 0.3,
				MaxLatency:  10 * time.Millisecond,
			}
			pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
				CallTimeout:   300 * time.Millisecond,
				MaxFailures:   2,
				ReconnectMin:  5 * time.Millisecond,
				ReconnectMax:  50 * time.Millisecond,
				MaxReconnects: 2,
				Seed:          seed,
				Logf:          t.Logf,
			}, func(w int) *dist.ChaosConfig { c := cfg; c.Seed += int64(w) * 7919; return &c })
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			d := chaosPipeline(t, pool, k)
			type result struct {
				out runOutcome
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := fullRun(t, d)
				done <- result{out, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Logf("seed %d: clean error: %v", seed, r.err)
					return
				}
				if !reflect.DeepEqual(r.out, want) {
					t.Fatalf("seed %d: silent corruption:\ngot  %+v\nwant %+v", seed, r.out, want)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("seed %d: run deadlocked", seed)
			}
		})
	}
}
