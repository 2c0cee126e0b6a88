package dist

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/testutil"
)

// TestCloseIdempotent: Close is safe to call repeatedly (the facade, the
// CLI's defer and a signal path may all reach it) and every call returns
// the same result.
func TestCloseIdempotent(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalPool(2, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	err1 := p.Close()
	err2 := p.Close()
	if err1 != err2 {
		t.Fatalf("Close twice: %v then %v", err1, err2)
	}
	var reply EchoReply
	if err := p.Session().Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("Call after Close = %v, want ErrWorkerDown", err)
	}
}

// TestCloseStopsReconnectLoop: a worker whose probe loop is in backoff
// when the pool closes must not leave its loop behind. MaxReconnects is
// set high and the backoff long, so a leaked loop would outlive the
// NoLeaks settle window.
func TestCloseStopsReconnectLoop(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	p, err := NewLocalPoolOpts(1, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{
			CallTimeout:   50 * time.Millisecond,
			MaxFailures:   100,
			MaxReconnects: 100,
			ReconnectMin:  10 * time.Second,
			ReconnectMax:  10 * time.Second,
			Logf:          t.Logf,
		})
	if err != nil {
		t.Fatal(err)
	}
	var reply EchoReply
	if err := p.Session().Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
	// The worker's probe loop is now in its 10 s backoff; Close must cut
	// it short and wait for the loop to exit.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt32(&blocked, 0)
}

// TestCallCtxPreCanceledFailsFast: an already-canceled ctx fails before
// any bytes go out — the connection stays healthy and usable.
func TestCallCtxPreCanceledFailsFast(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalPool(1, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	var reply EchoReply
	if err := s.Call(ctx, 0, "Echo", &EchoArgs{X: 2}, &reply); !errors.Is(err, cause) {
		t.Fatalf("pre-canceled Call = %v, want cause %v", err, cause)
	}
	if n := s.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d after pre-canceled call, want 1 (no health event)", n)
	}
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 2}, &reply); err != nil || reply.X != 4 {
		t.Fatalf("follow-up call = (%v, %d), want (nil, 4)", err, reply.X)
	}
}

// TestCallCtxCancelSeversInFlight: canceling mid-call unblocks the caller
// promptly (no CallTimeout configured) and severs the connection like a
// timeout would, so the abandoned reply can never race a retry. A cancel
// is not the worker's fault: its slot stays live, even at MaxFailures 1.
func TestCallCtxCancelSeversInFlight(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	defer atomic.StoreInt32(&blocked, 0)
	p, err := NewLocalPoolOpts(1, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{MaxFailures: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(cause)
	}()
	var reply EchoReply
	start := time.Now()
	err = s.Call(ctx, 0, "Echo", &EchoArgs{X: 1}, &reply)
	if !errors.Is(err, cause) {
		t.Fatalf("canceled Call = %v, want cause %v", err, cause)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("canceled call took %v to unblock", el)
	}
	c := s.conns[0]
	c.mu.Lock()
	kept := c.client != nil
	c.mu.Unlock()
	if kept {
		t.Fatal("the canceled call's connection was kept")
	}
	if h := p.Health(); h.Healthy != 1 || h.Evictions != 0 {
		t.Fatalf("fleet after a canceled call: %+v, want worker 0 live", h)
	}
}

// TestCallCtxCancelIsNotAWorkerFailure: a call its caller cancels severs
// the connection but does not count toward MaxFailures, so even at
// MaxFailures 1 the worker is not evicted: the session's next call
// redials it, and that one reconnect is what the fleet counts.
func TestCallCtxCancelIsNotAWorkerFailure(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	defer atomic.StoreInt32(&blocked, 0)
	p, err := NewLocalPoolOpts(1, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{MaxFailures: 1, ReconnectMin: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(cause)
	}()
	var reply EchoReply
	if err := s.Call(ctx, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, cause) {
		t.Fatalf("canceled Call = %v, want cause %v", err, cause)
	}
	atomic.StoreInt32(&blocked, 0)
	if !s.Healthy(0) || !p.Healthy(0) {
		t.Fatalf("worker not schedulable after the cancel: %+v", p.Health())
	}
	// The next call redials the severed connection.
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 3}, &reply); err != nil || reply.X != 6 {
		t.Fatalf("call after the cancel = (%v, %d), want (nil, 6)", err, reply.X)
	}
	if h := p.Health(); h.Evictions != 0 || h.Reconnects != 1 {
		t.Fatalf("after a canceled call: %d evictions and %d reconnects, want 0 and 1", h.Evictions, h.Reconnects)
	}
}

// TestParallelCallsPlacedCancelUnwinds: a canceled batch of placed calls
// returns promptly with the cancellation cause on every task, the calls in
// flight severed and those queued behind them failed before they touch the
// network, and evicts no worker: a cancel is not a worker's fault.
func TestParallelCallsPlacedCancelUnwinds(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	defer atomic.StoreInt32(&blocked, 0)
	p, err := NewLocalPoolOpts(2, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{MaxFailures: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(cause)
	}()
	replies := make([]interface{}, 16)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	start := time.Now()
	_, errs := p.Session().ParallelCallsPlacedCtx(ctx, len(replies), func(t int) int { return t % 2 }, "Echo", func(t int) interface{} {
		return &EchoArgs{X: t}
	}, replies)
	for tk, err := range errs {
		if !errors.Is(err, cause) {
			t.Fatalf("task %d of a canceled batch = %v, want cause %v", tk, err, cause)
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("canceled batch took %v to unwind", el)
	}
	if h := p.Health(); h.Evictions != 0 {
		t.Fatalf("a canceled batch evicted %d workers", h.Evictions)
	}
}
