package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/testutil"
)

// TestMultiTenantChaos is the headline robustness scenario: three
// concurrent jobs multiplexed onto one shared 4-worker fleet whose
// worker 3 hangs on every call (evicted at first contact). The worker
// choice is deterministic — job 1 gets view {0,1}, job 2 {2,3}, job 3
// {0,1} — so exactly one job collides with the fault. Every job must
// still finish byte-identical to its solo single-tenant baseline, the
// fault must stay contained to the colliding job's view, and the scraped
// /status and /metrics documents must agree with the injected fault.
// Then a fourth job is killed and resumed independently, and a fifth is
// cut by a mid-flight server drain and finished by a successor server
// over the same root — both byte-identical to their baselines. The fifth
// is held inside a phase until the drain has cut it, so the drain always
// finds it running; cutting its calls evicts no worker.
func TestMultiTenantChaos(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	const k = 4
	inputs := []string{
		writeInput(t, 3000, 6, 101),
		writeInput(t, 4000, 6, 202),
		writeInput(t, 3500, 6, 303),
	}
	baselines := make([][][]byte, len(inputs))
	for i := range inputs {
		baselines[i] = soloBaseline(t, inputs[i], k)
	}
	bigInput := writeInput(t, 12000, 8, 404)
	bigBaseline := soloBaseline(t, bigInput, k)

	// Worker 3 hangs on every response. No CallTimeout is set: the
	// liveness rule cuts its first call when its probe goes unanswered,
	// and MaxFailures 1 evicts it at first contact. Workers 0-2 are clean.
	hold := &phaseHold{held: make(chan struct{}, 1)}
	pool, err := dist.NewLocalChaosPool(4, func() interface{} {
		return holdService{Service: &assembly.Service{}, hold: hold}
	}, dist.Options{
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig {
		if w == 3 {
			return &dist.ChaosConfig{Seed: 7, FirstSafe: 1, HangProb: 1, HangFor: time.Hour}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })

	root := t.TempDir()
	s, err := NewServer(pool, Options{
		MaxRunning: 3, QueueDepth: 8, Root: root, Template: testTemplate(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	// Three tenants at once.
	ids := make([]string, len(inputs))
	for i, input := range inputs {
		ids[i], err = s.Submit(Spec{Name: "tenant", InputPath: input, K: k, MaxWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if err := s.Wait(id); err != nil {
			t.Fatalf("job %d (%s) failed under chaos: %v", i, id, err)
		}
		got, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameContigs(got, baselines[i]) {
			t.Fatalf("job %d diverged from its solo baseline under multi-tenant chaos (%d vs %d contigs)",
				i, len(got), len(baselines[i]))
		}
	}
	// Fault isolation: the deterministic least-assigned choice puts only
	// job 2 on the faulty worker; jobs 1 and 3 never touch it.
	wantViews := [][]int{{0, 1}, {2, 3}, {0, 1}}
	for i, id := range ids {
		st, _ := s.Status(id)
		if len(st.Workers) != 2 || st.Workers[0] != wantViews[i][0] || st.Workers[1] != wantViews[i][1] {
			t.Fatalf("job %d ran on view %v, want %v", i, st.Workers, wantViews[i])
		}
	}

	// Scraped /status: 4 workers, worker 3 evicted, the rest healthy.
	var page StatusPage
	getJSON(t, srv.URL+"/status", &page)
	if len(page.Fleet.Workers) != 4 || page.Fleet.Healthy != 3 {
		t.Fatalf("fleet snapshot %+v, want 4 workers with 3 healthy", page.Fleet)
	}
	if st := page.Fleet.Workers[3].State; st != dist.WorkerEvicted {
		t.Fatalf("worker 3 state %v, want evicted", st)
	}
	if page.Fleet.Evictions < 1 {
		t.Fatalf("fleet evictions %d, want >= 1", page.Fleet.Evictions)
	}

	// Scraped /metrics: the fault path is visible (job 2's placements on
	// worker 3 failed over to the survivor), no job degraded to local
	// fallback, and the queue fully drained.
	var snap MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.Counters["jobs_done_total"] != 3 || snap.Counters["jobs_admitted_total"] != 3 {
		t.Fatalf("job counters inconsistent: %v", snap.Counters)
	}
	faults := snap.Counters["assembly_partition_lost_total"] +
		snap.Counters["assembly_rehost_total"] +
		snap.Counters["assembly_rehost_failed_total"]
	if faults < 1 {
		t.Fatalf("no rehost path recorded after an eviction: %v", snap.Counters)
	}
	if snap.Counters["assembly_degraded_total"] != 0 {
		t.Fatalf("a tenant degraded to local fallback despite healthy survivors: %v", snap.Counters)
	}
	if snap.Gauges["jobs_running"] != 0 || snap.Gauges["queue_depth"] != 0 {
		t.Fatalf("gauges not drained: %v", snap.Gauges)
	}

	// Independent kill/resume: a fourth tenant is killed mid-run and
	// resumed from its own checkpoint namespace; the finished jobs above
	// are untouched and the output still matches the baseline.
	id4, err := s.Submit(Spec{Name: "killme", InputPath: bigInput, K: k, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id4, Running, 10*time.Second)
	if err := s.Kill(id4); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id4); err == nil {
		t.Fatal("killed tenant reported success")
	}
	if st, _ := s.Status(id4); st.State != Killed || !st.Resumable {
		t.Fatalf("after kill: %+v, want Killed and resumable", st)
	}
	for i, id := range ids {
		if st, _ := s.Status(id); st.State != Done {
			t.Fatalf("kill of job 4 leaked into job %d: %+v", i, st)
		}
	}
	if err := s.Resume(id4); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id4); err != nil {
		t.Fatalf("resumed tenant failed: %v", err)
	}
	if got, _ := s.Result(id4); !sameContigs(got, bigBaseline) {
		t.Fatal("kill/resume tenant diverged from solo baseline")
	}

	// Mid-flight drain: a fifth tenant is cut while running. The drain
	// checkpoints it (Killed, resumable), the server stays queryable, and
	// a successor server over the same root requeues and finishes it.
	hold.arm()
	evictedBefore := pool.Health().Evictions
	id5, err := s.Submit(Spec{Name: "drained", InputPath: bigInput, K: k, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id5, Running, 10*time.Second)
	select {
	case <-hold.held:
	case <-time.After(10 * time.Second):
		t.Fatal("drained tenant never reached a phase")
	}
	s.Drain(time.Millisecond)
	hold.release()
	if st, _ := s.Status(id5); st.State != Killed || !st.Resumable {
		t.Fatalf("drained tenant: %+v, want Killed and resumable", st)
	}
	getJSON(t, srv.URL+"/status", &page)
	if !page.Draining {
		t.Fatal("status page not draining after Drain")
	}
	s.Close()

	successor, err := NewServer(pool, Options{
		MaxRunning: 2, QueueDepth: 8, Root: root, Template: testTemplate(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { successor.Close() })
	if err := successor.Wait(id5); err != nil {
		t.Fatalf("requeued tenant failed on successor: %v", err)
	}
	if got, _ := successor.Result(id5); !sameContigs(got, bigBaseline) {
		t.Fatal("drain/restart tenant diverged from solo baseline")
	}
	// The calls the drain cut were the caller's cancel, not worker
	// failures: at MaxFailures 1 they still evict no one.
	if n := pool.Health().Evictions; n != evictedBefore {
		t.Fatalf("the drain evicted %d worker(s)", n-evictedBefore)
	}
	// The finished jobs reloaded as terminal history, not as new work.
	for i, id := range ids {
		if st, err := successor.Status(id); err != nil || st.State != Done {
			t.Fatalf("job %d history on successor: %+v err %v", i, st, err)
		}
	}
}

// phaseHold holds the Phase calls of holdService: between arm and release
// every call blocks, signalling held once it does.
type phaseHold struct {
	mu   sync.Mutex
	open chan struct{} // non-nil while armed; closed by release
	held chan struct{}
}

func (h *phaseHold) arm() {
	h.mu.Lock()
	h.open = make(chan struct{})
	h.mu.Unlock()
}

func (h *phaseHold) release() {
	h.mu.Lock()
	close(h.open)
	h.open = nil
	h.mu.Unlock()
}

// holdService is the assembly worker service with its Phase calls behind
// a phaseHold.
type holdService struct {
	*assembly.Service
	hold *phaseHold
}

func (s holdService) Phase(args *assembly.PhaseArgs, reply *assembly.PhaseReply) error {
	s.hold.mu.Lock()
	open := s.hold.open
	s.hold.mu.Unlock()
	if open != nil {
		select {
		case s.hold.held <- struct{}{}:
		default:
		}
		<-open
	}
	return s.Service.Phase(args, reply)
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
