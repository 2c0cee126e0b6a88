package focus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/testutil"
)

// cancelWhen fires cancel(cause) once the pool has finished n calls, then
// the returned stop func reaps the trigger goroutine.
func cancelWhen(pool *dist.Pool, n int64, cancel context.CancelCauseFunc, cause error) func() {
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

// TestCancelResumeThroughFacade: a run canceled through Config.Context
// surfaces the caller's cause (IsInterrupted reports true), best-effort
// checkpoints on the way out, leaks nothing, and a -resume style rerun
// reproduces the uninterrupted baseline byte-for-byte.
func TestCancelResumeThroughFacade(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 305)

	base, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	basePool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Assemble(basePool, 2, 2, 1)
	basePool.Close()
	if err != nil {
		t.Fatal(err)
	}

	for _, after := range []int64{1, 6} {
		after := after
		t.Run(fmt.Sprintf("after%d", after), func(t *testing.T) {
			defer testutil.NoLeaks(t)
			dir := t.TempDir()
			// Like the CLI's signal cause, wrap context.Canceled so the
			// error classifies as an interruption, not a failure.
			cause := fmt.Errorf("facade cancel at %d completions: %w", after, context.Canceled)
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)

			cfg := testConfig()
			cfg.Context = ctx
			cfg.Checkpoint = Checkpoint{Dir: dir}
			s, err := BuildStages(reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := dist.NewLocalPool(2, assembly.NewService)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			stopTrigger := cancelWhen(pool, after, cancel, cause)
			defer stopTrigger()

			res, err := s.Assemble(pool, 2, 2, 1)
			if err == nil {
				// Cancel landed after the last phase: output must be intact.
				if len(res.Contigs) != len(want.Contigs) {
					t.Fatalf("late-cancel run: %d contigs, want %d", len(res.Contigs), len(want.Contigs))
				}
				return
			}
			if !IsInterrupted(err) {
				t.Fatalf("canceled run error %v not classified as interrupted", err)
			}
			if !errors.Is(err, cause) {
				t.Fatalf("canceled run error = %v, want cause %v", err, cause)
			}

			// Resume semantics: newest checkpoint if one was cut, a fresh
			// run otherwise — baseline-identical either way.
			rcfg := testConfig()
			rcfg.Checkpoint = Checkpoint{Dir: dir, Resume: true}
			rs, err := BuildStages(reads, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			pool2, err := dist.NewLocalPool(2, assembly.NewService)
			if err != nil {
				t.Fatal(err)
			}
			defer pool2.Close()
			got, err := rs.Assemble(pool2, 2, 2, 1)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if len(got.Contigs) != len(want.Contigs) {
				t.Fatalf("contigs after resume: %d, want %d", len(got.Contigs), len(want.Contigs))
			}
			for i := range want.Contigs {
				if !bytes.Equal(got.Contigs[i], want.Contigs[i]) {
					t.Fatalf("contig %d differs after resume", i)
				}
			}
		})
	}
}

// TestDeadlineThroughFacade: Config.Deadline arms a run deadline whose
// cause is ErrDeadline; an impossible deadline interrupts the run before
// any stage output exists.
func TestDeadlineThroughFacade(t *testing.T) {
	defer testutil.NoLeaks(t)
	reads, _ := simReads(t, 3000, 5, 306)
	cfg := testConfig()
	cfg.Deadline = time.Nanosecond
	_, _, err := Assemble(reads, cfg, 2, 2)
	if err == nil {
		t.Fatal("1ns deadline run succeeded")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline run error = %v, want ErrDeadline", err)
	}
	if !IsInterrupted(err) {
		t.Fatalf("deadline error %v not classified as interrupted", err)
	}
}

// TestWatchdogThroughFacade: Config.Watchdog reaches the driver — a hung
// worker with no per-call timeout armed is detected and kicked, and the
// run completes on the survivor.
func TestWatchdogThroughFacade(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 307)
	defer testutil.NoLeaks(t)
	s, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hang := dist.ChaosConfig{Seed: 19, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, assembly.NewService, dist.Options{
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
	s.Cfg.Watchdog = 100 * time.Millisecond
	res, err := s.Assemble(pool, 2, 2, 1)
	if err != nil {
		t.Fatalf("watchdog-guarded run failed: %v", err)
	}
	if res.Stats.NumContigs == 0 {
		t.Fatal("watchdog-guarded run produced no contigs")
	}
	if n := pool.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d, want 1 (hung worker kicked)", n)
	}
}
