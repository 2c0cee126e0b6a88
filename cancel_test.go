package focus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/simulate"
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

// twoWorkerPool is a two-worker in-process pool under cfg.Dist whose
// workers listed in hung wedge for an hour after the handshake ack.
func twoWorkerPool(t *testing.T, cfg Config, hung ...int) *dist.Pool {
	t.Helper()
	pool, err := dist.NewLocalChaosPool(2, assembly.NewService, cfg.Dist, func(w int) *dist.ChaosConfig {
		if slices.Contains(hung, w) {
			return &dist.ChaosConfig{Seed: 19 + int64(w), FirstSafe: 1, HangProb: 1, HangFor: time.Hour}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestLivenessThroughFacade is the default-configuration run with one
// worker hung forever: DefaultConfig, alignment and assembly both on a
// two-worker pool whose worker 1 never answers after the handshake. The
// liveness rule cuts its calls, and the run finishes quickly with contigs
// byte-identical to a healthy run.
func TestLivenessThroughFacade(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 307)
	cfg := DefaultConfig()
	run := func(pool *dist.Pool) *AssemblyResult {
		t.Helper()
		s, err := BuildStagesOnPool(reads, cfg, pool)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Assemble(pool, 2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := twoWorkerPool(t, cfg)
	want := run(healthy)
	healthy.Close()
	if len(want.Contigs) == 0 {
		t.Fatal("healthy run produced no contigs")
	}

	defer testutil.NoLeaks(t)
	pool := twoWorkerPool(t, cfg, 1)
	defer pool.Close()
	start := time.Now()
	got := run(pool)
	if el := time.Since(start); el > 15*time.Second {
		t.Fatalf("run with a hung worker took %v", el)
	}
	if !slices.EqualFunc(got.Contigs, want.Contigs, bytes.Equal) {
		t.Fatalf("run with a hung worker: %d contigs differ from the healthy run's %d", len(got.Contigs), len(want.Contigs))
	}
	if pool.Healthy(1) {
		t.Fatal("hung worker still schedulable")
	}
}

// TestLivenessAllHung: with every worker of a fresh fleet hung and no
// run deadline, no call ever succeeds; the liveness rule still cuts each
// hung call, the work falls back to the master, and the run finishes
// with the contigs of a healthy run.
func TestLivenessAllHung(t *testing.T) {
	reads, _ := simReads(t, 3000, 5, 308)
	cfg := testConfig()
	healthy := twoWorkerPool(t, cfg)
	want, _, err := AssembleOnPool(reads, cfg, 2, healthy)
	healthy.Close()
	if err != nil {
		t.Fatal(err)
	}

	defer testutil.NoLeaks(t)
	pool := twoWorkerPool(t, cfg, 0, 1)
	defer pool.Close()
	start := time.Now()
	got, _, err := AssembleOnPool(reads, cfg, 2, pool)
	if err != nil {
		t.Fatalf("run on a hung fleet: %v", err)
	}
	if el := time.Since(start); el > 15*time.Second {
		t.Fatalf("run on a hung fleet took %v", el)
	}
	if !slices.EqualFunc(got.Contigs, want.Contigs, bytes.Equal) {
		t.Fatalf("run on a hung fleet: %d contigs differ from the healthy run's %d", len(got.Contigs), len(want.Contigs))
	}
}

// TestLivenessRunDeadline: a run deadline shorter than the time the
// liveness rule takes to cut a hung call ends a run on a hung fleet with
// ErrDeadline, promptly after it expires.
func TestLivenessRunDeadline(t *testing.T) {
	defer testutil.NoLeaks(t)
	reads, _ := simReads(t, 3000, 5, 308)
	cfg := testConfig()
	cfg.Deadline = 3 * time.Second
	pool := twoWorkerPool(t, cfg, 0, 1)
	defer pool.Close()
	start := time.Now()
	_, _, err := AssembleOnPool(reads, cfg, 2, pool)
	el := time.Since(start)
	if !errors.Is(err, ErrDeadline) || !IsInterrupted(err) {
		t.Fatalf("run on a hung fleet = %v, want an interrupted ErrDeadline", err)
	}
	if el > 5*time.Second {
		t.Fatalf("run on a hung fleet ended after %v", el)
	}
}

// TestLivenessNoFalseCuts: the D1–D3 analogues at scale 0.1, alignment
// and assembly on one two-worker fleet with the default Dist, at
// GOMAXPROCS=1 so calls run as slowly as they will on a loaded host. No
// healthy call may be cut: the fleet ends with no reconnect and no
// eviction.
func TestLivenessNoFalseCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles three data sets; skipped with -short")
	}
	defer testutil.NoLeaks(t)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cfg := DefaultConfig()
	pool, err := dist.NewLocalPoolOpts(2, assembly.NewService, cfg.Dist)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for d := 1; d <= 3; d++ {
		spec, err := simulate.PaperDataSet(d, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		com, err := simulate.BuildCommunity(spec)
		if err != nil {
			t.Fatal(err)
		}
		rc := simulate.PaperReadConfig(d, 8)
		rs, err := simulate.SimulateReads(com, rc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Preprocess.Trim5 = rc.AdapterLen
		s, err := BuildStagesOnPool(rs.Reads, cfg, pool)
		if err != nil {
			t.Fatalf("D%d: %v", d, err)
		}
		res, err := s.Assemble(pool, 4, 2, 1)
		if err != nil {
			t.Fatalf("D%d: %v", d, err)
		}
		if len(res.Contigs) == 0 {
			t.Fatalf("D%d: no contigs", d)
		}
		t.Logf("D%d: %d reads, %d records, %d contigs", d, len(s.Reads), len(s.Records), len(res.Contigs))
	}
	if h := pool.Health(); h.Reconnects != 0 || h.Evictions != 0 || h.Healthy != 2 {
		t.Fatalf("healthy calls were cut: %+v", h)
	}
}
