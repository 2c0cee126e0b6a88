package jobs

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	focus "focus"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/simulate"
	"focus/internal/testutil"
)

// TestJobLifecycleDoneResult: a submitted job runs to Done on its worker
// view and its contigs are byte-identical to a solo single-tenant run of
// the same input — multi-tenancy must not perturb output.
func TestJobLifecycleDoneResult(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	const k = 4
	input := writeInput(t, 3000, 6, 7)
	want := soloBaseline(t, input, k)

	fleet := newFleet(t, 2, dist.Options{})
	s, err := NewServer(fleet, Options{
		MaxRunning: 2, Root: t.TempDir(), Template: testTemplate(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	id, err := s.Submit(Spec{Name: "solo", InputPath: input, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Attempts != 1 || st.Contigs == 0 {
		t.Fatalf("done status %+v, want Done after 1 attempt with contigs", st)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers %v, want the whole 2-worker fleet", st.Workers)
	}
	if st.SubmittedAt == 0 || st.StartedAt < st.SubmittedAt || st.FinishedAt < st.StartedAt {
		t.Fatalf("timestamps out of order: %+v", st)
	}
	got, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !sameContigs(got, want) {
		t.Fatalf("multi-tenant contigs diverge from solo baseline (%d vs %d contigs)", len(got), len(want))
	}
	// The durable record reflects the terminal state.
	rec, err := readStatus(s.jobs[id].dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != Done || rec.Contigs != st.Contigs {
		t.Fatalf("durable record %+v, want Done with %d contigs", rec, st.Contigs)
	}
}

// TestJobKillResumeByteIdentical: killing a running job checkpoints it;
// Resume restarts from the last frame and the final contigs still match
// an uninterrupted solo run exactly.
func TestJobKillResumeByteIdentical(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	const k = 4
	input := writeInput(t, 12000, 8, 21)
	want := soloBaseline(t, input, k)

	fleet := newFleet(t, 2, dist.Options{})
	s, err := NewServer(fleet, Options{
		MaxRunning: 1, Root: t.TempDir(), Template: testTemplate(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	id, err := s.Submit(Spec{Name: "interrupted", InputPath: input, K: k})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, Running, 10*time.Second)
	if err := s.Kill(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err == nil {
		t.Fatal("killed job finished with nil error")
	}
	st, _ := s.Status(id)
	if st.State != Killed || !st.Resumable {
		t.Fatalf("after kill: %+v, want Killed and resumable", st)
	}
	// Kill is not contagious to admission: the job resumes cleanly.
	if err := s.Resume(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	st, _ = s.Status(id)
	if st.State != Done || st.Attempts != 2 {
		t.Fatalf("after resume: %+v, want Done on attempt 2", st)
	}
	got, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !sameContigs(got, want) {
		t.Fatalf("kill/resume contigs diverge from solo baseline (%d vs %d contigs)", len(got), len(want))
	}
	if n := s.Metrics().Counter("jobs_resumed_total").Value(); n != 1 {
		t.Fatalf("jobs_resumed_total = %d, want 1", n)
	}
}

// TestJobRestartRequeues: a drained server leaves durable records; a
// successor over the same root requeues the unfinished job and completes
// it baseline-identically; a third server sees the job as terminal history
// and still serves its contigs, from the job's namespace.
func TestJobRestartRequeues(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	const k = 4
	input := writeInput(t, 3000, 6, 33)
	want := soloBaseline(t, input, k)
	root := t.TempDir()
	fleet := newFleet(t, 2, dist.Options{})

	// Server A: paused scheduler, so the job is drained while still queued.
	a, err := NewServer(fleet, Options{MaxRunning: -1, Root: root, Template: testTemplate(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.Submit(Spec{Name: "carryover", InputPath: input, K: k})
	if err != nil {
		t.Fatal(err)
	}
	a.Drain(0)
	if st, _ := a.Status(id); st.State != Killed || !st.Resumable {
		t.Fatalf("drained queued job: %+v, want Killed and resumable", st)
	}
	a.Close()

	// Server B: reload requeues the unfinished job and runs it.
	b, err := NewServer(fleet, Options{MaxRunning: 2, Root: root, Template: testTemplate(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(id); err != nil {
		t.Fatalf("requeued job failed: %v", err)
	}
	got, err := b.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !sameContigs(got, want) {
		t.Fatalf("restarted-server contigs diverge from solo baseline")
	}
	b.Close()

	// Server C: the job is terminal history; its contigs were persisted.
	c, err := NewServer(fleet, Options{MaxRunning: 2, Root: root, Template: testTemplate(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	st, err := c.Status(id)
	if err != nil || st.State != Done {
		t.Fatalf("history status %+v err %v, want Done", st, err)
	}
	if err := c.Wait(id); err != nil {
		t.Fatalf("Wait on historical Done job: %v", err)
	}
	got, err = c.Result(id)
	if err != nil {
		t.Fatalf("Result after a restart: %v", err)
	}
	if !sameContigs(got, want) {
		t.Fatal("contigs read back after a restart diverge from solo baseline")
	}
	// The same contigs over HTTP.
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/jobs/" + id + "/contigs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs, err := dna.ReadFASTA(resp.Body)
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("GET contigs after a restart: %d, %v", resp.StatusCode, err)
	}
	got = got[:0]
	for _, r := range recs {
		got = append(got, r.Seq)
	}
	if !sameContigs(got, want) {
		t.Fatal("contigs fetched over HTTP after a restart diverge from solo baseline")
	}
}

// TestUnknownJobErrors: every by-id entry point reports ErrNotFound for
// an id the server has never seen.
func TestUnknownJobErrors(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 1, Options{})
	const id = "job-999999"
	if _, err := s.Status(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Status: %v", err)
	}
	if err := s.Wait(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := s.Result(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Result: %v", err)
	}
	if _, err := s.Watch(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Watch: %v", err)
	}
	if err := s.Resume(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resume: %v", err)
	}
}

// TestWatchDeliversTransitions: watchers see the kill transition and the
// channel closes at terminal; a watch on an already-terminal job yields
// its final snapshot immediately.
func TestWatchDeliversTransitions(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 1, Options{})
	id, err := s.Submit(Spec{Name: "watched", InputPath: "r.fastq"})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(id); err != nil {
		t.Fatal(err)
	}
	var last Status
	for st := range ch {
		last = st
	}
	if last.State != Killed {
		t.Fatalf("last watched state %s, want Killed", last.State)
	}
	late, err := s.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := <-late
	if !ok || st.State != Killed {
		t.Fatalf("late watch got (%+v, %v), want buffered Killed snapshot", st, ok)
	}
	if _, ok := <-late; ok {
		t.Fatal("late watch channel not closed after its snapshot")
	}
}

// TestJobSeedPartitions: each job partitions with its own Spec.Seed. On
// the D1 analogue at k = 16, seeds 1 and 3 cut partitions that give
// different contigs: each job's result is the direct run at its seed, and
// Seed 0 runs as seed 1.
func TestJobSeedPartitions(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	const k = 16
	spec, err := simulate.PaperDataSet(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := simulate.PaperReadConfig(1, 8)
	rs, err := simulate.SimulateReads(com, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	input := writeReads(t, rs.Reads, "d1.fastq")
	reads, err := dna.ReadsFromFile(input)
	if err != nil {
		t.Fatal(err)
	}
	template := testTemplate()
	template.Preprocess.Trim5 = rcfg.AdapterLen
	fleet := newFleet(t, 2, dist.Options{})
	stages, err := focus.BuildStages(reads, template)
	if err != nil {
		t.Fatal(err)
	}
	direct := map[int64][][]byte{}
	for _, seed := range []int64{1, 3} {
		res, err := stages.Assemble(fleet, k, fleet.Size(), seed)
		if err != nil {
			t.Fatal(err)
		}
		direct[seed] = res.Contigs
	}
	if sameContigs(direct[1], direct[3]) {
		t.Fatal("seeds 1 and 3 give the same contigs: the input cannot tell them apart")
	}

	s, err := NewServer(fleet, Options{MaxRunning: 1, Template: template, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, tc := range []struct{ seed, runs int64 }{{0, 1}, {1, 1}, {3, 3}} {
		id, err := s.Submit(Spec{Name: "seed", InputPath: input, K: k, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(id); err != nil {
			t.Fatalf("Seed %d: %v", tc.seed, err)
		}
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Spec.Seed != tc.runs {
			t.Fatalf("Seed %d recorded as %d, want %d", tc.seed, st.Spec.Seed, tc.runs)
		}
		got, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameContigs(got, direct[tc.runs]) {
			t.Fatalf("job at Seed %d: contigs differ from the direct run at seed %d", tc.seed, tc.runs)
		}
	}
}
