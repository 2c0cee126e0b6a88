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

// livenessRun runs the shared pipeline on a two-worker pool whose worker
// 1 wedges (chaos hang for an hour) after `safe` responses, with no
// CallTimeout and MaxFailures 1: only the liveness rule can cut the
// wedged call. The run must finish within the bound with the healthy
// baseline's output, the wedged worker evicted and the driver not
// degraded.
func livenessRun(t *testing.T, safe int) {
	const k = 4
	want := healthyBaseline(t, k)
	defer testutil.NoLeaks(t)

	hang := dist.ChaosConfig{Seed: 11, FirstSafe: safe, HangProb: 1, HangFor: time.Hour}
	pool, err := dist.NewLocalChaosPool(2, NewService, dist.Options{MaxFailures: 1, Logf: t.Logf},
		func(w int) *dist.ChaosConfig {
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
	start := time.Now()
	got, err := fullRun(t, d)
	if err != nil {
		t.Fatalf("run with a wedged worker failed: %v", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("run with a wedged worker took %v", el)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run with a wedged worker diverged from baseline:\ngot  %+v\nwant %+v", got, want)
	}
	if n := pool.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d, want 1 (wedged worker cut and evicted)", n)
	}
	if d.DegradeReason() != DegradeNone {
		t.Fatal("driver degraded to local mode despite a surviving worker")
	}
}

// TestLivenessRehostsHungWorker: one of two workers hangs on every
// response and no per-call timeout is set. Its first Load is cut when
// its liveness probe goes unanswered, and its partitions are hosted on
// the survivor.
func TestLivenessRehostsHungWorker(t *testing.T) { livenessRun(t, 1) }

// TestLivenessPinnedWedge: worker 1 answers the handshake and the Loads
// of its two partitions, then wedges inside the first phase while
// holding them. The wedged call is cut when its liveness probe goes
// unanswered, and its partitions are re-hosted mid-phase.
func TestLivenessPinnedWedge(t *testing.T) { livenessRun(t, 3) }
