package assembly

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/metrics"
)

// FlakyService fails a configurable subset of Transitive phase calls,
// simulating worker faults. It embeds the real service so non-failing
// calls behave normally. When Calls is set the counter is shared across
// workers, making the fault pattern independent of how the scheduler
// interleaves tasks over them. A fault is an application-level error,
// or with LoseState the worker's state table losing the partition (the
// not-loaded answer of a restarted worker, which the master re-hosts).
type FlakyService struct {
	Service
	calls     int64
	Calls     *int64 // shared counter; nil = per-worker
	FailEvery int64  // every n-th call fails (1 = always)
	FailAt    int64  // exactly the n-th call fails (0 = disabled)
	LoseState bool
}

func (f *FlakyService) Phase(args *PhaseArgs, reply *PhaseReply) error {
	if args.Phase != "Transitive" {
		return f.Service.Phase(args, reply)
	}
	ctr := &f.calls
	if f.Calls != nil {
		ctr = f.Calls
	}
	n := atomic.AddInt64(ctr, 1)
	if (f.FailEvery > 0 && n%f.FailEvery == 0) || (f.FailAt > 0 && n == f.FailAt) {
		if f.LoseState {
			f.mu.Lock()
			delete(f.parts, args.Part)
			f.mu.Unlock()
			return f.Service.Phase(args, reply)
		}
		return errors.New("injected worker fault")
	}
	return f.Service.Phase(args, reply)
}

func testDiGraph(k int) (*DiGraph, []int32) {
	dg := &DiGraph{
		Contigs: make([][]byte, 6),
		Weight:  make([]int64, 6),
		Removed: make([]bool, 6),
		Out:     make([][]Edge, 6),
		In:      make([][]Edge, 6),
	}
	labels := make([]int32, 6)
	for i := range dg.Contigs {
		dg.Contigs[i] = bytes.Repeat([]byte("A"), 100)
		dg.Weight[i] = 1
		labels[i] = int32(i % k)
	}
	return dg, labels
}

func poolDriver(t *testing.T, pool *dist.Pool, k int) *Driver {
	t.Helper()
	dg, labels := testDiGraph(k)
	d, err := NewDriver(pool, dg, labels, k, DefaultConfig())
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	return d
}

func flakyDriver(t *testing.T, newService func() interface{}, workers, k int) (*Driver, *dist.Pool) {
	t.Helper()
	pool, err := dist.NewLocalPool(workers, newService)
	if err != nil {
		t.Fatal(err)
	}
	return poolDriver(t, pool, k), pool
}

func TestDriverPropagatesWorkerFault(t *testing.T) {
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{FailEvery: 1} // every call fails
	}, 2, 4)
	defer pool.Close()
	if _, err := d.Trim(); err == nil {
		t.Fatal("worker fault not propagated")
	} else if !strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDriverPartialFaultStillFails(t *testing.T) {
	// Exactly one call (the second across the whole pool) fails; the
	// phase must still error rather than silently proceed with partial
	// results. These are application-level errors — the answering worker
	// is alive and re-hosting cannot fix a bug — so no re-host, fallback
	// or eviction applies.
	var calls int64
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{Calls: &calls, FailAt: 2}
	}, 2, 4)
	defer pool.Close()
	if _, err := d.Trim(); err == nil {
		t.Fatal("partial worker fault not propagated")
	}
}

func TestDriverRetriesRecoverFromPartialFault(t *testing.T) {
	// The same single fault as above, but the worker answers that it lost
	// the partition: the master re-hosts it and retries the call, whose
	// number can no longer be 2, so the phase recovers deterministically
	// without degrading.
	var calls int64
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{Calls: &calls, FailAt: 2, LoseState: true}
	}, 2, 4)
	defer pool.Close()
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)
	if _, err := d.Trim(); err != nil {
		t.Fatalf("re-host did not recover: %v", err)
	}
	if n := reg.Counter("assembly_rehost_total").Value(); n != 1 {
		t.Fatalf("%d re-hosts, want the faulted partition re-Loaded once", n)
	}
	if d.localOnly {
		t.Fatal("degraded with every worker alive")
	}
}

func TestDriverRetriesStillFailWhenAllWorkersFail(t *testing.T) {
	// Every call on every worker fails with an application-level error:
	// no re-host can fix a service bug, so none is tried, the phase fails
	// with the worker's error, and the run neither retries nor degrades.
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{FailEvery: 1}
	}, 2, 4)
	defer pool.Close()
	reg := metrics.NewRegistry()
	d.SetMetrics(reg)
	_, err := d.Trim()
	if err == nil || !strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("all-workers fault not propagated: %v", err)
	}
	if n := reg.Counter("assembly_rehost_total").Value(); n != 0 {
		t.Fatalf("a service error was answered with %d re-host(s)", n)
	}
	if d.localOnly {
		t.Fatal("degraded with every worker alive")
	}
}

func TestDriverHealthyFlakyServicePasses(t *testing.T) {
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{} // never fails
	}, 2, 4)
	defer pool.Close()
	if _, err := d.Trim(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerDiesMidSession wedges a TCP worker's connection mid-session
// (via the chaos transport) and checks an in-flight call returns an error
// within the configured deadline instead of hanging forever, and that the
// worker is evicted from the schedulable set.
func TestWorkerDiesMidSession(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// The worker answers one phase, then wedges: on each connection the
	// first three server writes (the wire-handshake ack, then on the run's
	// own connection the Load and one phase response) are safe, every
	// later response write hangs.
	chaos := dist.NewChaosListener(lis, dist.ChaosConfig{
		Seed: 7, FirstSafe: 3, HangProb: 1, HangFor: 30 * time.Second,
	})
	srv, err := dist.NewServer(&Service{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(chaos) }()

	const timeout = 200 * time.Millisecond
	pool, err := dist.DialPoolOpts([]string{lis.Addr().String()}, dist.Options{
		CallTimeout: timeout,
		MaxFailures: 1, // evict on the first wedge, no reconnect churn
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	d := poolDriver(t, pool, 1)
	var st TrimStats
	if err := d.TrimTransitive(&st); err != nil {
		t.Fatalf("healthy phase failed: %v", err)
	}

	// The next call lands on the run's now-wedged connection. Without
	// deadlines (the old pool) this blocked forever; now it must fail
	// within the deadline and evict the worker.
	start := time.Now()
	err = d.sess.Call(nil, 0, "Phase", &PhaseArgs{Part: 0, Phase: "Paths", Cfg: DefaultConfig()}, &PhaseReply{})
	if err == nil {
		t.Fatal("call on wedged worker connection succeeded")
	}
	if !errors.Is(err, dist.ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got: %v", err)
	}
	if el := time.Since(start); el > 10*timeout {
		t.Fatalf("timed-out call took %v (deadline %v)", el, timeout)
	}
	if n := pool.NumHealthy(); n != 0 {
		t.Fatalf("wedged worker not evicted: NumHealthy=%d", n)
	}

	// Dialing a dead address must fail fast, too.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	if _, err := dist.DialPool([]string{addr}); err == nil {
		t.Fatal("dial to dead worker succeeded")
	}
}

func TestParallelCallsSurvivesMixedOutcomes(t *testing.T) {
	// 8 Phase calls against partitions Loaded on 2 flaky workers, each
	// failing its 3rd call: the fault must be reported for exactly the
	// calls it hit, and every other call must answer.
	pool, err := dist.NewLocalPool(2, func() interface{} {
		return &FlakyService{FailEvery: 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sess := pool.Session()
	const tasks = 8
	place := func(tk int) int { return tk % 2 }
	for p := 0; p < tasks; p++ {
		sub := *chainSub(3)
		sub.Part = int32(p)
		if err := sess.Call(nil, place(p), "Load", &LoadArgs{Sub: sub}, new(dist.Ack)); err != nil {
			t.Fatal(err)
		}
	}
	replies := make([]interface{}, tasks)
	for i := range replies {
		replies[i] = &PhaseReply{}
	}
	_, errs := sess.ParallelCallsPlacedCtx(nil, tasks, place, "Phase", func(tk int) interface{} {
		return &PhaseArgs{Part: int32(tk), Phase: "Transitive", Cfg: DefaultConfig()}
	}, replies)
	failed := 0
	for tk, err := range errs {
		switch {
		case err == nil:
		case strings.Contains(err.Error(), "injected worker fault"):
			failed++
		default:
			t.Fatalf("task %d: %v", tk, err)
		}
	}
	// Each worker serves 4 calls, so each fails exactly one: its 3rd.
	if failed != 2 {
		t.Fatalf("%d of %d calls failed, want 2", failed, tasks)
	}
}

// liarService answers one phase with a reply the master cannot apply.
type liarService struct {
	Service
	phase string
	lie   PhaseReply
}

func (l *liarService) Phase(args *PhaseArgs, reply *PhaseReply) error {
	if err := l.Service.Phase(args, reply); err != nil || args.Phase != l.phase {
		return err
	}
	*reply = l.lie
	return nil
}

// TestDriverRejectsBadWorkerReplies: a worker whose reply names nodes
// outside the graph, or an empty path, gets an error naming the phase,
// the partition and the worker — not an index panic in the master — and
// the graph stays untouched.
func TestDriverRejectsBadWorkerReplies(t *testing.T) {
	for _, tc := range []struct {
		phase, want string
		lie         PhaseReply
		run         func(d *Driver) error
	}{
		{"Transitive", "edge head 99", PhaseReply{Edges: []EdgePair{{From: 0, To: 99}}},
			func(d *Driver) error { return d.TrimTransitive(&TrimStats{}) }},
		{"Containment", "edge tail -1", PhaseReply{Removal: Removal{Edges: []EdgePair{{From: -1, To: 0}}}},
			func(d *Driver) error { return d.TrimContainment(&TrimStats{}) }},
		{"Errors", "node 1048576", PhaseReply{Removal: Removal{Nodes: []int32{1 << 20}}},
			func(d *Driver) error { return d.TrimErrors(&TrimStats{}) }},
		{"Paths", "an empty path", PhaseReply{Paths: [][]int32{{}}},
			func(d *Driver) error { _, _, err := d.TraverseTimed(); return err }},
	} {
		d, pool := flakyDriver(t, func() interface{} {
			return &liarService{phase: tc.phase, lie: tc.lie}
		}, 1, 2)
		err := tc.run(d)
		pool.Close()
		if err == nil {
			t.Fatalf("%s: bad reply accepted", tc.phase)
		}
		for _, part := range []string{tc.phase + " phase", "worker 0", "partition ", tc.want} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %q", tc.phase, err, part)
			}
		}
		for _, gone := range d.G.Removed {
			if gone {
				t.Fatalf("%s: a rejected reply removed a node", tc.phase)
			}
		}
	}
}
