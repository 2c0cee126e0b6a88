package dist

import (
	"context"
	"fmt"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

// Session is a run's own connections to the members of the pool handle
// it was opened from: the only thing that dials workers and calls them.
// What a worker stores for the session's calls lives as long as these
// connections, so Close frees it, and a call the session severs touches
// no other session's. Worker ids are fleet-global.
//
// A session reports its transport failures into the fleet's slots
// (record), and redials a severed connection at its next call to a live
// slot; that redial is what HealthSnapshot.Reconnects counts.
type Session struct {
	pool  *Pool
	conns []*conn // by worker id; nil for a non-member

	closed    chan struct{}
	closeOnce sync.Once
}

// conn is a session's connection to one member worker.
type conn struct {
	slot *slot

	// The liveness rule's signs of life (liveness.go): UnixNano of the
	// last byte read from the worker and of the last byte written to it.
	heard, wrote atomic.Int64

	mu     sync.Mutex
	client *rpc.Client // nil once severed, until the next call redials
	dialed bool        // a client was set before: the next is a reconnect
	fails  int         // consecutive counted transport failures
}

// Session opens a session of p's members, each dialed and handshaken
// under the fleet's Options as client redials it. A member whose slot is
// not live is left undialed until it reads live again. The session's
// calls count in p's and the fleet's Completions. A session of a closed
// fleet is closed at once.
func (p *Pool) Session() *Session {
	s := &Session{pool: p, conns: make([]*conn, len(p.slots)), closed: make(chan struct{})}
	for i, sl := range p.slots {
		if p.allowed(i) {
			s.conns[i] = &conn{slot: sl}
		}
	}
	p.mu.Lock()
	open := !isClosed(p.closed)
	if open {
		p.sessions[s] = true
	}
	p.mu.Unlock()
	if !open {
		s.Close()
	}
	for _, c := range s.conns {
		if c != nil {
			s.client(c) // a failed dial marks the slot down
		}
	}
	return s
}

// NumHealthy returns the number of workers Healthy reports.
func (s *Session) NumHealthy() int { return len(s.HealthyIDs()) }

// Healthy reports whether a call to worker i can go out now: i is a
// member of an open session, its slot is not evicted, and either the
// session's connection to it stands or its slot reads live (the call
// redials). Out-of-range ids are unhealthy.
func (s *Session) Healthy(i int) bool {
	if i < 0 || i >= len(s.conns) || s.conns[i] == nil || isClosed(s.closed) {
		return false
	}
	c := s.conns[i]
	if st := c.slot.health(); st != WorkerReconnecting {
		return st == WorkerLive
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.client != nil
}

// HealthyIDs returns the ids Healthy reports, in ascending order: an
// advisory snapshot, since a placement on a worker that just died fails
// its call and is re-placed.
func (s *Session) HealthyIDs() []int { return healthyIDs(len(s.conns), s.Healthy) }

// Call invokes method (without the service prefix) on worker i under the
// liveness rule, or under Options.CallTimeout when set. ctx bounds the
// call further: cancellation (or a ctx deadline) severs the in-flight
// call exactly like ErrCallTimeout does — the connection is closed so
// the abandoned reply can never be written concurrently with a retry —
// and the returned error wraps the context's cause. A nil ctx means no
// bound beyond the call's deadline. The outcome feeds the worker's
// health (record).
func (s *Session) Call(ctx context.Context, i int, method string, args, reply interface{}) error {
	if i < 0 || i >= len(s.conns) {
		return fmt.Errorf("dist: worker %d out of range [0,%d)", i, len(s.conns))
	}
	c := s.conns[i]
	if c == nil {
		return fmt.Errorf("dist: worker %d not a member of this session: %w", i, ErrWorkerDown)
	}
	var cdone <-chan struct{}
	if ctx != nil {
		if ctx.Err() != nil {
			// Fail fast without touching the (healthy) connection: no call
			// went out, so there is nothing to sever and no health event.
			return fmt.Errorf("dist: %s on worker %d: %w", method, i, context.Cause(ctx))
		}
		cdone = ctx.Done()
	}
	// A body the codec cannot carry is the caller's bug, not the worker's:
	// reject it here, before it can count against the connection's health.
	for _, body := range [2]interface{}{args, reply} {
		if _, ok := body.(Wire); !ok && body != nil {
			return fmt.Errorf("dist: %s on worker %d: %w", method, i, notWireError(body))
		}
	}
	cl, err := s.client(c)
	if err != nil {
		return err
	}
	defer func() {
		for h := s.pool; h != nil; h = h.parent {
			h.completions.Add(1)
		}
	}()
	// client.Go's send runs in the calling goroutine and can itself block
	// on a wedged connection, so the whole round-trip goes in a goroutine.
	done := make(chan error, 1)
	go func() {
		call := cl.Go(ServiceName+"."+method, args, reply, make(chan *rpc.Call, 1))
		done <- (<-call.Done).Error
	}()
	timeout := s.pool.opt.CallTimeout
	bound := livenessFloor
	if timeout > 0 {
		bound = timeout
	}
	timer := time.NewTimer(bound)
	defer timer.Stop()
	var pr *probe
	var answer <-chan error
	for {
		select {
		case err := <-done:
			s.record(c, cl, err, true)
			return err
		case err := <-answer:
			if IsTransportError(err) {
				s.record(c, cl, err, true)
				return err
			}
			// The worker is alive; the running timer sends the next probe.
			pr, answer = nil, nil
		case <-timer.C:
			if timeout <= 0 {
				if pr == nil {
					pr = startProbe(cl)
					answer = pr.answer
					timer.Reset(livenessFloor)
					continue
				}
				if left := livenessFloor - pr.silence(c); left > 0 {
					timer.Reset(left)
					continue
				}
			}
			err := fmt.Errorf("dist: %s on worker %d after %v: %w", method, i, timeout, ErrCallTimeout)
			if pr != nil {
				err = fmt.Errorf("dist: %s on worker %d: silent for %v: %w", method, i, livenessFloor, ErrCallTimeout)
			}
			s.record(c, cl, err, true)
			return err
		case <-cdone:
			err := fmt.Errorf("dist: %s on worker %d: %w", method, i, context.Cause(ctx))
			s.record(c, cl, err, false)
			return err
		}
	}
}

// client returns c's connection, dialing it when there is none and its
// slot reads live; a redial after a cut counts as a reconnect. A failed
// dial marks the slot down.
func (s *Session) client(c *conn) (*rpc.Client, error) {
	c.mu.Lock()
	cl := c.client
	c.mu.Unlock()
	if cl != nil {
		return cl, nil
	}
	id, f := c.slot.id, s.pool.fleet
	down := fmt.Errorf("dist: worker %d: %w", id, ErrWorkerDown)
	if isClosed(s.closed) || c.slot.health() != WorkerLive {
		return nil, down
	}
	// Dialed without c.mu held: the dial runs the caller's service
	// factory and WrapConn.
	cl, err := f.dial(c.slot, c)
	if err != nil {
		f.opt.Logf("dist: worker %d unreachable (%v); probing it in background", id, err)
		f.down(c.slot)
		return nil, err
	}
	c.mu.Lock()
	// Close closes s.closed before it takes c.mu to sweep; a concurrent
	// call may have dialed first.
	won, closed, redial := c.client, isClosed(s.closed), c.dialed
	if won == nil && !closed {
		c.client, c.dialed = cl, true
	}
	c.mu.Unlock()
	switch {
	case closed:
		cl.Close()
		return nil, down
	case won != nil:
		cl.Close()
		return won, nil
	case redial:
		f.reconnects.Add(1)
		f.opt.Logf("dist: worker %d reconnected", id)
	}
	return cl, nil
}

// record feeds a call's outcome on cl into c's and its slot's health. A
// success resets c's count of consecutive transport failures. A
// transport failure severs the connection — net/rpc clients are not
// reusable after an I/O error, and a timed-out call could still write
// into its abandoned reply — and, counted, is the fleet's news: the slot
// is evicted after MaxFailures consecutive ones, else marked down and
// probed. A call its caller canceled is severed uncounted: the worker did
// nothing wrong. Once the session is closed it only drops the connection.
func (s *Session) record(c *conn, cl *rpc.Client, err error, counted bool) {
	closed := isClosed(s.closed)
	c.mu.Lock()
	if c.client != cl { // stale generation: an already-severed conn
		c.mu.Unlock()
		return
	}
	if !IsTransportError(err) {
		c.fails = 0
		c.mu.Unlock()
		return
	}
	c.client = nil
	if counted && !closed {
		c.fails++
	}
	fails := c.fails
	c.mu.Unlock()
	cl.Close()
	f, id := s.pool.fleet, c.slot.id
	switch {
	case closed:
	case !counted:
		f.opt.Logf("dist: worker %d connection severed (%v)", id, err)
	case fails >= f.opt.MaxFailures:
		f.evict(c.slot)
		f.opt.Logf("dist: worker %d evicted after %d consecutive transport failure(s) (last: %v)", id, fails, err)
	default:
		f.opt.Logf("dist: worker %d connection severed (%v); probing it in background", id, err)
		f.down(c.slot)
	}
}

// Close closes the session's connections (and, for local pools, the
// worker goroutines serving them), which frees what the workers stored
// for it. It is idempotent.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		f := s.pool.fleet
		f.mu.Lock()
		delete(f.sessions, s)
		f.mu.Unlock()
		for _, c := range s.conns {
			if c == nil {
				continue
			}
			c.mu.Lock()
			if c.client != nil {
				c.client.Close()
				c.client = nil
			}
			c.mu.Unlock()
		}
	})
	return nil
}
