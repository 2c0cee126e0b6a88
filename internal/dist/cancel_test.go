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
	if err := p.Call(0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("Call after Close = %v, want ErrWorkerDown", err)
	}
}

// TestCloseStopsReconnectLoop: a worker in reconnect backoff when the pool
// closes must not leave its loop behind. MaxReconnects is set high and the
// backoff long, so a leaked loop would outlive the NoLeaks settle window.
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
	if err := p.Call(0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
	// The worker is now in its 10 s reconnect backoff; Close must cut it
	// short and wait for the loop to exit.
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
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	var reply EchoReply
	if err := p.CallCtx(ctx, 0, "Echo", &EchoArgs{X: 2}, &reply); !errors.Is(err, cause) {
		t.Fatalf("pre-canceled CallCtx = %v, want cause %v", err, cause)
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d after pre-canceled call, want 1 (no health event)", n)
	}
	if err := p.Call(0, "Echo", &EchoArgs{X: 2}, &reply); err != nil || reply.X != 4 {
		t.Fatalf("follow-up call = (%v, %d), want (nil, 4)", err, reply.X)
	}
}

// TestCallCtxCancelSeversInFlight: canceling mid-call unblocks the caller
// promptly (no CallTimeout configured) and severs the connection like a
// timeout would, so the abandoned reply can never race a retry.
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
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(cause)
	}()
	var reply EchoReply
	start := time.Now()
	err = p.CallCtx(ctx, 0, "Echo", &EchoArgs{X: 1}, &reply)
	if !errors.Is(err, cause) {
		t.Fatalf("canceled CallCtx = %v, want cause %v", err, cause)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("canceled call took %v to unblock", el)
	}
	if n := p.NumHealthy(); n != 0 {
		t.Fatalf("NumHealthy = %d, want 0 (severed connection, MaxFailures=1)", n)
	}
}

// TestCallCtxCancelIsNotAWorkerFailure: a call its caller cancels severs
// the connection but does not count toward MaxFailures, so even at
// MaxFailures 1 the worker is reconnected, not evicted, and serves the
// next call.
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
	cause := errors.New("run canceled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(cause)
	}()
	var reply EchoReply
	if err := p.CallCtx(ctx, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, cause) {
		t.Fatalf("canceled CallCtx = %v, want cause %v", err, cause)
	}
	atomic.StoreInt32(&blocked, 0)
	deadline := time.Now().Add(5 * time.Second)
	for !p.Healthy(0) {
		if time.Now().After(deadline) {
			t.Fatalf("worker not back after the cancel: %+v", p.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h := p.Health(); h.Evictions != 0 || h.Reconnects != 1 {
		t.Fatalf("after a canceled call: %d evictions and %d reconnects, want 0 and 1", h.Evictions, h.Reconnects)
	}
	if err := p.Call(0, "Echo", &EchoArgs{X: 3}, &reply); err != nil || reply.X != 6 {
		t.Fatalf("call after the cancel = (%v, %d), want (nil, 6)", err, reply.X)
	}
}

// TestParallelCallsCtxCancelUnwinds: a canceled scheduler run finishes all
// runners, returns the cancellation cause, and does not burn the retry
// budget churning through pre-canceled tasks.
func TestParallelCallsCtxCancelUnwinds(t *testing.T) {
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
	_, _, err = p.ParallelCallsCtx(ctx, len(replies), "Echo", func(t int) interface{} {
		return &EchoArgs{X: t}
	}, replies)
	if !errors.Is(err, cause) {
		t.Fatalf("canceled ParallelCallsCtx = %v, want cause %v", err, cause)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("canceled scheduler run took %v to unwind", el)
	}
}
