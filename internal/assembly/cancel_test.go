package assembly

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"focus/internal/checkpoint"
	"focus/internal/dist"
	"focus/internal/testutil"
)

// cancelAtCompletions fires cancel(cause) once the pool's completion
// counter reaches n finished calls — a deterministic-ish cancel point that
// sweeps across phase starts, mid-phase scheduling and phase boundaries as
// n grows. The returned stop func reaps the trigger goroutine.
func cancelAtCompletions(pool *dist.Pool, n int64, cancel context.CancelCauseFunc, cause error) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pool.Completions() >= n {
				cancel(cause)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// TestCancelSweep is the cancellation acceptance sweep: runs are canceled
// at increasing completion counts, on a healthy pool ("stateful") and on
// one whose second worker wedges after answering its two Loads and one
// Phase, so that the cancel meets partitions being re-hosted ("rehost"). Every
// canceled run must unwind promptly with the injected cause (never
// deadlock, never return silently corrupt output), leak no goroutines,
// and — when a phase boundary was reached — leave a checkpoint from which
// a resumed run reproduces the healthy baseline byte-for-byte.
func TestCancelSweep(t *testing.T) {
	const k = 4
	want := healthyBaseline(t, k)

	for _, name := range []string{"stateful", "rehost"} {
		opt := dist.DefaultOptions()
		var chaos func(w int) *dist.ChaosConfig
		if name == "rehost" {
			opt.CallTimeout, opt.MaxFailures = 200*time.Millisecond, 1
			chaos = func(w int) *dist.ChaosConfig {
				if w == 1 {
					return &dist.ChaosConfig{Seed: 19, FirstSafe: 4, HangProb: 1, HangFor: 2 * time.Second}
				}
				return nil
			}
		}
		for _, after := range []int64{0, 1, 2, 4, 8, 16, 32} {
			t.Run(fmt.Sprintf("%s/after%d", name, after), func(t *testing.T) {
				defer testutil.NoLeaks(t)
				dir := t.TempDir()
				pool, err := dist.NewLocalChaosPool(2, NewService, opt, chaos)
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				d := chaosPipeline(t, pool, k)
				defer d.Close()
				d.EnableCheckpoint(CheckpointConfig{Dir: dir})

				cause := fmt.Errorf("test cancel at %d completions", after)
				ctx, cancel := context.WithCancelCause(context.Background())
				defer cancel(nil)
				stopTrigger := cancelAtCompletions(pool, after, cancel, cause)
				defer stopTrigger()
				d.SetContext(ctx)

				type result struct {
					out runOutcome
					err error
				}
				done := make(chan result, 1)
				go func() {
					out, err := fullRun(t, d)
					done <- result{out, err}
				}()
				var r result
				select {
				case r = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("canceled run did not unwind")
				}

				if r.err == nil {
					// The cancel landed after the last phase (or never, for
					// large n): output must still be the baseline.
					if !reflect.DeepEqual(r.out, want) {
						t.Fatalf("uncanceled run diverged from baseline:\ngot  %+v\nwant %+v", r.out, want)
					}
					return
				}
				if !errors.Is(r.err, cause) {
					t.Fatalf("canceled run error = %v, want cause %v", r.err, cause)
				}

				// Best-effort checkpoint on cancel (what the facade does),
				// then prove the run is resumable and byte-identical.
				if err := d.CheckpointNow(); err != nil {
					t.Fatalf("CheckpointNow after cancel: %v", err)
				}
				cs, err := LoadLatestCheckpoint(dir)
				if errors.Is(err, checkpoint.ErrNone) {
					return // canceled before the first phase boundary
				}
				if err != nil {
					t.Fatal(err)
				}
				pool2, err := dist.NewLocalPool(2, NewService)
				if err != nil {
					t.Fatal(err)
				}
				defer pool2.Close()
				d2, err := ResumeDriver(pool2, cs, DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				defer d2.Close()
				got, err := fullRun(t, d2)
				if err != nil {
					t.Fatalf("resumed run failed: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed run diverged from baseline:\ngot  %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestWatchdogRehostsHungWorker is the watchdog demo: one of two workers
// hangs on every response and no per-call timeout is armed — the
// configuration the watchdog exists for. The stall is detected, the stuck
// worker kicked (its task reschedules onto the survivor), and the run
// completes with baseline output.
func TestWatchdogRehostsHungWorker(t *testing.T) {
	const k = 4
	want := healthyBaseline(t, k)
	defer testutil.NoLeaks(t)

	hang := dist.ChaosConfig{Seed: 11, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		MaxFailures: 1, // no CallTimeout: only the watchdog can unstick the run
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
	defer d.Close()
	d.EnableWatchdog(100 * time.Millisecond)
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("run with watchdog failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watchdog-rescued run diverged from baseline:\ngot  %+v\nwant %+v", got, want)
	}
	// Without the kick the hung worker would still be connected (nothing
	// else severs it when CallTimeout is off).
	if n := pool.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d, want 1 (hung worker kicked and evicted)", n)
	}
	if d.DegradeReason() != DegradeNone {
		t.Fatal("driver degraded to local mode despite a surviving worker")
	}
}

// TestWatchdogEscalatesToCancel: with every worker hung and kicking
// disabled, the ladder must end in cancellation with ErrStalled — not in
// the silent local fallback (a stalled run is a fault to surface, the
// fallback is for worker-pool exhaustion).
func TestWatchdogEscalatesToCancel(t *testing.T) {
	defer testutil.NoLeaks(t)
	hang := dist.ChaosConfig{Seed: 13, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig { c := hang; c.Seed += int64(w); return &c })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, 4)
	defer d.Close()
	d.EnableWatchdog(100 * time.Millisecond)
	d.wdNoKicks = true
	start := time.Now()
	_, err = fullRun(t, d)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled run error = %v, want ErrStalled", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("stalled run took %v to cancel", el)
	}
}

// TestPhaseBudgetExpiry: a run deadline is split into per-phase budgets;
// a phase that cannot finish within its share is canceled with
// ErrPhaseBudget well before the full run deadline.
func TestPhaseBudgetExpiry(t *testing.T) {
	defer testutil.NoLeaks(t)
	hang := dist.ChaosConfig{Seed: 17, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig { c := hang; c.Seed += int64(w); return &c })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := chaosPipeline(t, pool, 4)
	defer d.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(10*time.Second))
	defer cancel()
	d.SetContext(ctx)
	start := time.Now()
	_, err = fullRun(t, d)
	el := time.Since(start)
	if !errors.Is(err, ErrPhaseBudget) {
		t.Fatalf("budget-expired run error = %v, want ErrPhaseBudget", err)
	}
	// The first phase's weighted share of a 10 s deadline is far below the
	// deadline itself; hitting ErrPhaseBudget (not the run deadline) early
	// is the point of the split.
	if el >= 10*time.Second {
		t.Fatalf("phase budget fired only after the whole run deadline (%v)", el)
	}
}
