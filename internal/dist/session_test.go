package dist

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/testutil"
)

// countBytes counts the bytes a worker's end of a connection moves.
type countBytes struct {
	net.Conn
	n *atomic.Int64
}

func (c countBytes) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countBytes) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// TestSessionCountsInParent: a session opened from a one-member view
// dials that member only, and its call counts in the view's and the
// fleet's Completions and in the bytes WrapConn counts.
func TestSessionCountsInParent(t *testing.T) {
	defer testutil.NoLeaks(t)
	var conns atomic.Int32
	var wire atomic.Int64
	p, err := NewLocalPoolOpts(2, func() interface{} { return &EchoService{} },
		Options{WrapConn: func(_ int, c net.Conn) net.Conn { conns.Add(1); return countBytes{c, &wire} }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	view, err := p.View([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	s := view.Session()
	defer s.Close()
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections served, want the session's 1", n)
	}
	before := wire.Load()
	var reply EchoReply
	if err := s.Call(nil, 1, "Echo", &EchoArgs{X: 21, S: "ab"}, &reply); err != nil || reply.X != 42 {
		t.Fatalf("session call: %+v %v", reply, err)
	}
	if wire.Load() == before {
		t.Fatal("the session's call moved no counted byte")
	}
	if view.Completions() != 1 || p.Completions() != 1 {
		t.Fatalf("completions view %d, fleet %d; want 1 each", view.Completions(), p.Completions())
	}
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("call to a non-member = %v, want ErrWorkerDown", err)
	}
	if ids := s.HealthyIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("session HealthyIDs %v, want only member 1", ids)
	}
}

// TestSessionEvictionShowsInFleet: worker 1 hangs on the session's
// connection. Once the session's call is cut, MaxFailures 1 evicts the
// worker in the session and in the fleet, and a later session leaves it
// out.
func TestSessionEvictionShowsInFleet(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalChaosPool(2, func() interface{} { return &EchoService{} },
		Options{CallTimeout: 300 * time.Millisecond, MaxFailures: 1, Logf: t.Logf},
		func(w int) *ChaosConfig {
			if w == 1 {
				return &ChaosConfig{Seed: 3, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	defer s.Close()
	var reply EchoReply
	if err := s.Call(nil, 1, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("hung session call = %v, want ErrCallTimeout", err)
	}
	h := p.Health()
	if h.Workers[1].State != WorkerEvicted || h.Evictions != 1 || h.Healthy != 1 {
		t.Fatalf("fleet health after the session's eviction: %+v", h)
	}
	if s.Healthy(1) || !s.Healthy(0) {
		t.Fatalf("session HealthyIDs after the eviction: %v", s.HealthyIDs())
	}
	// A new session leaves the evicted worker out.
	s2 := p.Session()
	defer s2.Close()
	if s2.Healthy(1) || !s2.Healthy(0) {
		t.Fatalf("new session's HealthyIDs: %v", s2.HealthyIDs())
	}
}

// TestSessionCutShowsInFleet: a session's timeout cut of worker 1 makes
// the fleet read worker 1 as reconnecting (no probe failed yet, not
// evicted) right after the cut, so a scheduler choosing by fleet health
// passes it over; once the fleet's probe is answered it reads live again.
func TestSessionCutShowsInFleet(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	defer atomic.StoreInt32(&blocked, 0)
	p, err := NewLocalPoolOpts(2, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{CallTimeout: 50 * time.Millisecond, ReconnectMin: 200 * time.Millisecond, ReconnectMax: 200 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	defer s.Close()
	var reply EchoReply
	if err := s.Call(nil, 1, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("hung session call = %v, want ErrCallTimeout", err)
	}
	if p.Healthy(1) || !p.Healthy(0) {
		t.Fatalf("fleet health right after a session's cut: %+v", p.Health())
	}
	if ids := p.HealthyIDs(); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("fleet HealthyIDs after the cut = %v, want [0]", ids)
	}
	h := p.Health()
	if w := h.Workers[1]; w.State != WorkerReconnecting || w.ConsecutiveFails != 0 || h.Evictions != 0 {
		t.Fatalf("fleet health after the cut: %+v", h)
	}
	for deadline := time.Now().Add(5 * time.Second); !p.Healthy(1); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fleet worker 1 never reconnected: %+v", p.Health())
		}
	}
	var a, b Ack
	if err := s.Call(nil, 0, "Ping", &a, &b); err != nil {
		t.Fatalf("worker 0 after the cut: %v", err)
	}
}

// TestSessionCloseLeavesOthers: closing one session after its cut of
// worker 0 leaves another session working on both workers (its own
// connection to worker 0 stands) and the fleet reading the worker the
// cut did not touch as live (the cut worker's slot is in a long probe
// backoff); closing the fleet stops that probe loop and closes the
// sessions still open.
func TestSessionCloseLeavesOthers(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	p, err := NewLocalPoolOpts(2, func() interface{} { return &BlockService{blocked: &blocked} },
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
	defer p.Close()
	a, b := p.Session(), p.Session()
	var reply EchoReply
	if err := a.Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout, got %v", err)
	}
	atomic.StoreInt32(&blocked, 0)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Call(nil, 1, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("call on a closed session = %v, want ErrWorkerDown", err)
	}
	for w := 0; w < 2; w++ {
		if err := b.Call(nil, w, "Echo", &EchoArgs{X: 2}, &reply); err != nil || reply.X != 4 {
			t.Fatalf("worker %d after another session's Close: %+v %v", w, reply, err)
		}
	}
	if !p.Healthy(1) {
		t.Fatalf("fleet worker 1 after a session's Close: %+v", p.Health())
	}
	if h := p.Health(); h.Evictions != 0 || h.Workers[0].State != WorkerReconnecting || h.Workers[0].ConsecutiveFails != 0 {
		t.Fatalf("fleet after a session's cut of worker 0: %+v", h)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Call(nil, 0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("call on a session of a closed fleet = %v, want ErrWorkerDown", err)
	}
	if s := p.Session(); s.NumHealthy() != 0 {
		t.Fatalf("a session of a closed fleet has %d healthy workers", s.NumHealthy())
	}
}

// TestSessionsConcurrent: runs open, use and close sessions of one fleet
// from several goroutines while the fleet closes under them. Every call
// answers or fails on the transport, and no connection outlives the
// fleet.
func TestSessionsConcurrent(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalPool(2, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 20; i++ {
				s := p.Session()
				var reply EchoReply
				if err := s.Call(nil, g%2, "Echo", &EchoArgs{X: i}, &reply); err != nil && !IsTransportError(err) {
					errs <- err
					return
				}
				if i%2 == 0 {
					s.Close()
				}
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionCycleAlloc: a session of a 2-worker pool, opened, pinged once
// per worker and closed, allocates under 128 KB a cycle on average. A
// connection's buffers start at the size of the frames it usually carries
// and grow only for a larger one, so a short-lived session (a k sweep
// opens one per k) does not pay for the largest frame up front.
func TestSessionCycleAlloc(t *testing.T) {
	p, err := NewLocalPool(2, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cycle := func() {
		s := p.Session()
		for w := 0; w < 2; w++ {
			if err := s.Call(nil, w, "Ping", new(Ack), new(Ack)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
	cycle() // warm the pool's lazily built state
	const cycles = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 128<<10 {
		t.Fatalf("a session cycle allocates %d bytes on average, want < %d", per, 128<<10)
	}
}
