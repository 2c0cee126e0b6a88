package dist

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/testutil"
)

// BlockService wedges Echo while *blocked == 1, simulating a stuck worker
// at the service layer (the chaos transport simulates it below the codec).
type BlockService struct {
	blocked *int32
}

func (b *BlockService) Echo(args *EchoArgs, reply *EchoReply) error {
	for atomic.LoadInt32(b.blocked) == 1 {
		time.Sleep(5 * time.Millisecond)
	}
	reply.X = args.X * 2
	reply.S = args.S + args.S
	return nil
}

// Ping answers the liveness probe. Every test service has one: net/rpc
// answers a probe for a missing method from its read loop, which a chaos
// hang then wedges behind the hung write (TestLivenessChaosHangNoLeak).
func (b *BlockService) Ping(args, reply *Ack) error { return nil }

// FailService always returns an application-level error.
type FailService struct{}

func (FailService) Echo(args *EchoArgs, reply *EchoReply) error {
	return errors.New("application failure")
}

func (FailService) Ping(args, reply *Ack) error { return nil }

func TestCallTimeoutEvicts(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	p, err := NewLocalPoolOpts(1, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{CallTimeout: 100 * time.Millisecond, MaxFailures: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	var reply EchoReply
	start := time.Now()
	err = s.Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("timed-out call took %v", el)
	}
	if n := p.NumHealthy(); n != 0 {
		t.Fatalf("NumHealthy = %d after eviction, want 0", n)
	}
	// The evicted worker's slot answers ErrWorkerDown, not a hang.
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("want ErrWorkerDown on evicted worker, got %v", err)
	}
	atomic.StoreInt32(&blocked, 0)
}

func TestWorkerReconnectsAfterOutage(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	p, err := NewLocalPoolOpts(1, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{
			CallTimeout:   100 * time.Millisecond,
			MaxFailures:   3,
			ReconnectMin:  10 * time.Millisecond,
			ReconnectMax:  50 * time.Millisecond,
			MaxReconnects: 20,
			Logf:          t.Logf,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	var reply EchoReply
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
	// End the outage: the background probe should reinstate the worker's
	// slot (a fresh service instance answered its Ping), and the session's
	// next call redials it.
	atomic.StoreInt32(&blocked, 0)
	deadline := time.Now().Add(3 * time.Second)
	for p.NumHealthy() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("worker not reinstated: NumHealthy = %d", n)
	}
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 21, S: "a"}, &reply); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
	if reply.X != 42 {
		t.Fatalf("reply after reconnect: %+v", reply)
	}
}

// TestParallelCallsReschedulesAroundHungWorker is the dist-level
// rescheduling proof: with one of two workers wedged, every task still
// completes (through the survivor) and the result is correct. The pool
// moves no task: a task placed on the hung worker fails with a transport
// error (its first call is cut by the call timeout, which evicts the
// worker under MaxFailures 1, and the calls queued behind it fail fast),
// and the caller, who owns the placement, re-hosts it on a healthy worker.
// The wire handshake sits in the fault window: FirstSafe lets the ack
// through, then every response write on worker 0 wedges.
func TestParallelCallsReschedulesAroundHungWorker(t *testing.T) {
	defer testutil.NoLeaks(t)
	rescheduleAroundHungWorker(t, nil)
}

// rescheduleAroundHungWorker runs six tasks placed round-robin on a pool
// whose worker 0 hangs, checks that exactly the tasks on worker 0 fail
// with a transport error that is not the caller's own cancellation, that
// worker 0 is evicted, and that re-placing the failed tasks on the
// surviving worker completes every task correctly. ctx may be nil.
func rescheduleAroundHungWorker(t *testing.T, ctx context.Context) {
	t.Helper()
	hang := ChaosConfig{Seed: 11, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	p, err := NewLocalChaosPool(2, func() interface{} { return &EchoService{} },
		Options{CallTimeout: 150 * time.Millisecond, MaxFailures: 1, Logf: t.Logf},
		func(w int) *ChaosConfig {
			if w == 0 {
				return &hang
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	const tasks = 6
	replies := make([]interface{}, tasks)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	mkArgs := func(tk int) interface{} { return &EchoArgs{X: tk, S: "x"} }
	times, errs := s.ParallelCallsPlacedCtx(ctx, tasks, func(tk int) int { return tk % 2 }, "Echo", mkArgs, replies)
	if len(times) != tasks {
		t.Fatalf("got %d task times", len(times))
	}
	var failed []int
	for i, err := range errs {
		if i%2 == 1 {
			if err != nil {
				t.Errorf("task %d on the healthy worker: %v", i, err)
			}
			continue
		}
		if err == nil || !IsTransportError(err) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			t.Errorf("task %d on the hung worker: err %v, want a transport error", i, err)
		}
		failed = append(failed, i)
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d, want 1", n)
	}
	live := p.HealthyIDs()
	if len(live) != 1 || live[0] != 1 {
		t.Fatalf("HealthyIDs = %v, want [1]", live)
	}
	// The caller re-hosts exactly the failed tasks on the survivor.
	retry := make([]interface{}, len(failed))
	for i := range retry {
		retry[i] = replies[failed[i]]
	}
	_, errs = s.ParallelCallsPlacedCtx(ctx, len(failed), func(int) int { return live[0] }, "Echo",
		func(k int) interface{} { return mkArgs(failed[k]) }, retry)
	for k, err := range errs {
		if err != nil {
			t.Fatalf("re-hosted task %d: %v", failed[k], err)
		}
	}
	if ctx != nil && ctx.Err() != nil {
		t.Fatalf("context expired before the calls finished: %v", ctx.Err())
	}
	for i := range replies {
		if r := replies[i].(*EchoReply); r.X != 2*i {
			t.Errorf("task %d: X = %d, want %d", i, r.X, 2*i)
		}
	}
}

func TestApplicationErrorsDoNotEvict(t *testing.T) {
	p, err := NewLocalPool(2, func() interface{} { return FailService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	replies := make([]interface{}, 4)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	// Every task fails at the application level; the error propagates and
	// no worker is evicted — a worker that answers, even with an error, is
	// alive.
	_, errs := p.Session().ParallelCallsPlacedCtx(nil, 4, func(tk int) int { return tk % 2 }, "Echo", func(tk int) interface{} { return &EchoArgs{} }, replies)
	for tk, err := range errs {
		if err == nil {
			t.Fatalf("task %d: application failure not propagated", tk)
		}
		if IsTransportError(err) {
			t.Fatalf("task %d: application error classified as transport error: %v", tk, err)
		}
	}
	if n := p.NumHealthy(); n != 2 {
		t.Fatalf("NumHealthy = %d after application errors, want 2", n)
	}
}

// IDService reports which worker instance served a call.
type IDService struct{ id int }

func (s *IDService) Who(args *EchoArgs, reply *EchoReply) error {
	reply.X = s.id
	return nil
}

func TestParallelCallsPinnedAssignment(t *testing.T) {
	var n int32
	p, err := NewLocalPool(3, func() interface{} {
		return &IDService{id: int(atomic.AddInt32(&n, 1)) - 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The pool's registration check made one instance; the session's
	// connections, dialed in worker order, make the next three.
	atomic.StoreInt32(&n, 0)
	s := p.Session()
	const tasks = 7
	replies := make([]interface{}, tasks)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	_, errs := s.ParallelCallsPlacedCtx(nil, tasks, func(tk int) int { return tk % 3 }, "Who", func(tk int) interface{} { return &EchoArgs{} }, replies)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range replies {
		if got := replies[i].(*EchoReply).X; got != i%3 {
			t.Errorf("task %d served by worker %d, want %d (placed t%%3)", i, got, i%3)
		}
	}
}

// resetIndex returns the 1-based write on which a chaos connection with
// the given seed injects its reset (0 = none within 100 writes).
func resetIndex(t *testing.T, seed int64) int {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
		}
	}()
	cc := WrapChaos(c1, ChaosConfig{Seed: seed, ResetProb: 0.3})
	defer cc.Close()
	for i := 1; i <= 100; i++ {
		if _, err := cc.Write([]byte("0123456789")); err != nil {
			return i
		}
	}
	return 0
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	a := resetIndex(t, 42)
	b := resetIndex(t, 42)
	if a != b {
		t.Fatalf("same seed, different fault pattern: reset at write %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("no reset injected in 100 writes at ResetProb 0.3")
	}
}

// SlowService delays Echo long enough for Shutdown to observe it in flight.
type SlowService struct{}

func (SlowService) Echo(args *EchoArgs, reply *EchoReply) error {
	time.Sleep(300 * time.Millisecond)
	reply.X = args.X * 2
	return nil
}

func TestServerGracefulShutdownDrains(t *testing.T) {
	srv, err := NewServer(SlowService{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	p, err := DialPool([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var reply EchoReply
	called := make(chan error, 1)
	s := p.Session()
	go func() { called <- s.Call(nil, 0, "Echo", &EchoArgs{X: 5}, &reply) }()
	// Wait until the server has read the request.
	deadline := time.Now().Add(2 * time.Second)
	for srv.ActiveCalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.ActiveCalls() == 0 {
		t.Fatal("call never became active on the server")
	}
	srv.Shutdown(2 * time.Second)
	// The in-flight call drained to completion before connections closed.
	if err := <-called; err != nil {
		t.Fatalf("in-flight call killed by graceful shutdown: %v", err)
	}
	if reply.X != 10 {
		t.Fatalf("reply after drain: %+v", reply)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if _, err := DialPool([]string{lis.Addr().String()}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestHealthCheck(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// EchoService has no Ping method: the resulting ServerError still
	// proves the worker answers, which is what liveness means here.
	srv, err := NewServer(&EchoService{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	if err := HealthCheck(lis.Addr().String(), time.Second); err != nil {
		t.Fatalf("healthcheck against live worker: %v", err)
	}

	// A listener that accepts but never serves must time out, not hang.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			if _, err := mute.Accept(); err != nil {
				return
			}
		}
	}()
	if err := HealthCheck(mute.Addr().String(), 100*time.Millisecond); err == nil {
		t.Fatal("healthcheck against mute worker succeeded")
	}

	// Dead address: connection refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	if err := HealthCheck(addr, time.Second); err == nil {
		t.Fatal("healthcheck against dead address succeeded")
	}
}
