package jobs

import (
	"errors"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/testutil"
)

// paused returns a server whose scheduler never launches (MaxRunning<0),
// so admission and queue behaviour can be asserted deterministically.
func paused(t *testing.T, fleet int, opt Options) *Server {
	t.Helper()
	opt.MaxRunning = -1
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	s, err := NewServer(newFleet(t, fleet, dist.Options{}), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAdmissionQueueFullAndQuota: every rejection class is typed, wraps
// ErrAdmission, and is visible in the rejection counter; admitted jobs
// queue in order.
func TestAdmissionQueueFullAndQuota(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 2, Options{QueueDepth: 2, MemoryBudgetMB: 100})

	ok := Spec{Name: "fits", InputPath: "reads.fastq", K: 2}
	id1, err := s.Submit(ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ok); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(ok)
	if !errors.Is(err, ErrQueueFull) || !errors.Is(err, ErrAdmission) {
		t.Fatalf("3rd submit at depth 2: got %v, want ErrQueueFull wrapping ErrAdmission", err)
	}
	_, err = s.Submit(Spec{InputPath: "r.fastq", MaxWorkers: 3})
	if !errors.Is(err, ErrQuota) || !errors.Is(err, ErrAdmission) {
		t.Fatalf("3 workers on a 2-worker fleet: got %v, want ErrQuota", err)
	}
	_, err = s.Submit(Spec{InputPath: "r.fastq", MemoryMB: 101})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("101MB against a 100MB budget: got %v, want ErrQuota", err)
	}
	if _, err := s.Submit(Spec{}); err == nil || errors.Is(err, ErrAdmission) {
		t.Fatalf("empty InputPath: got %v, want a plain validation error", err)
	}

	snap := s.Metrics().Snapshot()
	if snap.Counters["jobs_admitted_total"] != 2 || snap.Counters["jobs_rejected_total"] != 3 {
		t.Fatalf("admitted=%d rejected=%d, want 2/3",
			snap.Counters["jobs_admitted_total"], snap.Counters["jobs_rejected_total"])
	}
	if snap.Gauges["jobs_queued"] != 2 || snap.Gauges["queue_depth"] != 2 {
		t.Fatalf("queued gauge=%d depth gauge=%d, want 2/2",
			snap.Gauges["jobs_queued"], snap.Gauges["queue_depth"])
	}
	if st, err := s.Status(id1); err != nil || st.State != Queued {
		t.Fatalf("first job: status %+v err %v, want Queued", st, err)
	}
	if got := len(s.List()); got != 2 {
		t.Fatalf("List has %d jobs, want the 2 admitted", got)
	}
}

// TestAdmissionNegativeMemory: a negative memory estimate is a quota
// rejection, so it cannot lower the memory in use and let two jobs whose
// estimates each fill the budget run at once.
func TestAdmissionNegativeMemory(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	input := writeInput(t, 3000, 6, 41)
	s, err := NewServer(newFleet(t, 2, dist.Options{}), Options{
		MemoryBudgetMB: 100, Template: testTemplate(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := s.Submit(Spec{Name: "negative", InputPath: input, K: 2, MemoryMB: -1000}); !errors.Is(err, ErrQuota) {
		t.Errorf("-1000 MB: got %v, want ErrQuota", err)
	}
	var ids []string
	for _, name := range []string{"a", "b"} {
		id, err := s.Submit(Spec{Name: name, InputPath: input, K: 2, MemoryMB: 100})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitState(t, s, id, Done, time.Minute)
	}
	a, _ := s.Status(ids[0])
	b, _ := s.Status(ids[1])
	if a.StartedAt < b.FinishedAt && b.StartedAt < a.FinishedAt {
		t.Fatalf("two 100 MB jobs ran at once on a 100 MB budget: [%d,%d] and [%d,%d]",
			a.StartedAt, a.FinishedAt, b.StartedAt, b.FinishedAt)
	}
}

// TestAdmissionDraining: after Drain, submits are rejected with
// ErrDraining (still an ErrAdmission).
func TestAdmissionDraining(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 1, Options{})
	s.Drain(0)
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	_, err := s.Submit(Spec{InputPath: "r.fastq"})
	if !errors.Is(err, ErrDraining) || !errors.Is(err, ErrAdmission) {
		t.Fatalf("submit while draining: got %v, want ErrDraining wrapping ErrAdmission", err)
	}
}

// TestAdmissionPriorityOrder: the queue is priority-descending, FIFO
// within a priority.
func TestAdmissionPriorityOrder(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 1, Options{QueueDepth: 8})
	ids := map[string]string{}
	for _, sub := range []struct {
		name string
		prio int
	}{{"lo", 0}, {"hi1", 5}, {"hi2", 5}, {"mid", 1}} {
		id, err := s.Submit(Spec{Name: sub.name, InputPath: "r.fastq", Priority: sub.prio})
		if err != nil {
			t.Fatal(err)
		}
		ids[sub.name] = id
	}
	s.mu.Lock()
	var got []string
	for _, j := range s.queue {
		got = append(got, j.status.Spec.Name)
	}
	s.mu.Unlock()
	want := []string{"hi1", "hi2", "mid", "lo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queue order %v, want %v", got, want)
		}
	}
	_ = ids
}

// TestKillQueuedJob: killing a queued job finalizes it without it ever
// running; a second kill is ErrTerminal; the kill is independent — the
// other queued job is untouched.
func TestKillQueuedJob(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	root := t.TempDir()
	s := paused(t, 1, Options{Root: root})
	id1, err := s.Submit(Spec{Name: "victim", InputPath: "r.fastq"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Spec{Name: "bystander", InputPath: "r.fastq"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(id1); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(id1)
	if st.State != Killed || !st.Resumable {
		t.Fatalf("killed queued job: %+v, want Killed and resumable (durable root)", st)
	}
	if err := s.Kill(id1); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double kill: got %v, want ErrTerminal", err)
	}
	if err := s.Kill("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("kill unknown: got %v, want ErrNotFound", err)
	}
	if st, _ := s.Status(id2); st.State != Queued {
		t.Fatalf("bystander state %s, want still Queued", st.State)
	}
	// The durable record reflects the terminal state immediately.
	rec, err := readStatus(s.jobs[id1].dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != Killed {
		t.Fatalf("durable record state %s, want Killed", rec.State)
	}
}
