package assembly

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/dist"
	"focus/internal/overlap"
)

// FlakyService fails a configurable subset of calls, simulating worker
// faults. It embeds the real service so non-failing calls behave
// normally. When Calls is set the counter is shared across workers,
// making the fault pattern independent of how the scheduler interleaves
// tasks over them.
type FlakyService struct {
	Service
	calls     int64
	Calls     *int64 // shared counter; nil = per-worker
	FailEvery int64  // every n-th call fails (1 = always)
	FailAt    int64  // exactly the n-th call fails (0 = disabled)
}

func (f *FlakyService) Transitive(args *PhaseArgs, reply *EdgeReply) error {
	ctr := &f.calls
	if f.Calls != nil {
		ctr = f.Calls
	}
	n := atomic.AddInt64(ctr, 1)
	if (f.FailEvery > 0 && n%f.FailEvery == 0) || (f.FailAt > 0 && n == f.FailAt) {
		return errors.New("injected worker fault")
	}
	return f.Service.Transitive(args, reply)
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
	// Exactly one call (the second across the whole pool) fails; without
	// retries the phase must still error rather than silently proceed
	// with partial results. These are application-level errors — the
	// answering worker is alive — so no fallback or eviction applies.
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
	// Same single fault as above, but with one retry: the failed task is
	// rescheduled on the other worker (a task runs at most once per
	// worker), whose call number can no longer be 2, so the phase
	// recovers deterministically.
	var calls int64
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{Calls: &calls, FailAt: 2}
	}, 2, 4)
	defer pool.Close()
	d.Cfg.RPCRetries = 1
	if _, err := d.Trim(); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
}

func TestDriverRetriesStillFailWhenAllWorkersFail(t *testing.T) {
	d, pool := flakyDriver(t, func() interface{} {
		return &FlakyService{FailEvery: 1} // every call on every worker fails
	}, 2, 4)
	defer pool.Close()
	d.Cfg.RPCRetries = 3
	if _, err := d.Trim(); err == nil {
		t.Fatal("all-workers fault not propagated despite retries")
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

// TestAlignPairBadRequestKeepsWorker: a TCP-served worker sent
// well-formed AlignPair requests it cannot run — k = 0 (which used to panic
// inside the k-mer enumerator, and net/rpc does not recover a handler:
// the whole worker process died), k = 33, ids and sequences of different
// counts — answers each with an error, still answers Ping after each, and
// then runs a good request.
func TestAlignPairBadRequestKeepsWorker(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { _ = dist.Serve(lis, &Service{}) }()
	pool, err := dist.DialPoolOpts([]string{lis.Addr().String()}, dist.Options{CallTimeout: 10 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rng := rand.New(rand.NewSource(21))
	seq := make([]byte, 120)
	for i := range seq {
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	job := func(mut func(*overlap.AlignPairArgs)) *overlap.AlignPairArgs {
		a := &overlap.AlignPairArgs{
			RefIDs: []int32{0, 1}, RefSeqs: [][]byte{seq, seq[40:]},
			QueryIDs: []int32{0, 1}, QuerySeqs: [][]byte{seq, seq[40:]},
			Cfg: overlap.DefaultConfig(),
		}
		mut(a)
		return a
	}
	for _, bad := range []struct {
		name string
		mut  func(*overlap.AlignPairArgs)
	}{
		{"k=0", func(a *overlap.AlignPairArgs) { a.Cfg.K = 0 }},
		{"k=33", func(a *overlap.AlignPairArgs) { a.Cfg.K = 33 }},
		{"ids/sequences", func(a *overlap.AlignPairArgs) { a.QuerySeqs = a.QuerySeqs[:1] }},
	} {
		var reply overlap.AlignPairReply
		if err := pool.Call(0, "AlignPair", job(bad.mut), &reply); err == nil {
			t.Fatalf("%s: no error, %d records", bad.name, len(reply.Records))
		}
		var ack dist.Ack
		if err := pool.Call(0, "Ping", new(dist.Ack), &ack); err != nil || !bool(ack) {
			t.Fatalf("after %s: Ping %v %v", bad.name, ack, err)
		}
	}
	var reply overlap.AlignPairReply
	if err := pool.Call(0, "AlignPair", job(func(*overlap.AlignPairArgs) {}), &reply); err != nil || len(reply.Records) == 0 {
		t.Fatalf("good request after the bad ones: %d records, %v", len(reply.Records), err)
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
	// The worker answers one phase, then wedges: the first two server
	// writes (the wire-handshake ack and one phase response) are safe,
	// every later response write hangs.
	chaos := dist.NewChaosListener(lis, dist.ChaosConfig{
		Seed: 7, FirstSafe: 2, HangProb: 1, HangFor: 30 * time.Second,
	})
	go func() { _ = dist.Serve(chaos, &Service{}) }()

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

	// The next call lands on the now-wedged connection. Without deadlines
	// (the old pool) this blocked forever; now it must fail within the
	// deadline and evict the worker.
	start := time.Now()
	err = pool.Call(0, "Transitive", &PhaseArgs{Sub: *chainSub(3), Cfg: DefaultConfig()}, &EdgeReply{})
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
	// 8 tasks over 2 flaky workers, each failing its 3rd call: the error
	// must be reported even though most tasks succeed.
	pool, err := dist.NewLocalPool(2, func() interface{} {
		return &FlakyService{FailEvery: 3}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	replies := make([]interface{}, 8)
	for i := range replies {
		replies[i] = &EdgeReply{}
	}
	sub := chainSub(3)
	_, err = pool.ParallelCalls(8, "Transitive", func(tk int) interface{} {
		return &PhaseArgs{Sub: *sub, Cfg: DefaultConfig()}
	}, replies)
	if err == nil {
		t.Fatal("expected at least one injected fault across 8 calls")
	}
}
