package dist

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// This file is the pool's task scheduler. ParallelCallsCtx drains a
// shared queue with one runner goroutine per schedulable worker: tasks
// naturally reroute around evicted or slow workers (a static t % Size()
// assignment would re-hit dead workers and let one straggler stall the
// phase) while preserving the one-in-flight-per-worker invariant (a pool
// of w workers processes at most w tasks concurrently — what makes runtime
// fall as the pool grows, Fig. 6). ParallelCallsPlacedCtx runs each task
// on the worker an explicit placement table names, for protocols that pin
// state to a worker (the stateful delta protocol of assembly).

// ParallelCallsCtx runs one call per task concurrently over the
// schedulable workers. mkArgs and replies are indexed by task. It returns
// the per-task durations (argument construction excluded), which the
// harness projects onto larger worker counts, and the id of the worker
// whose reply each task kept (-1 for a task that never succeeded), so a
// caller that rejects a reply can name its sender; the first error (in
// task order) is returned after all calls finish. When no schedulable
// worker exists the error wraps ErrNoWorkers.
//
// A task failed by the service fails at once, as in an MPI job: the
// services run deterministic functions of their arguments, so another
// worker would fail it the same way. A transport failure (timeout, broken
// connection) fails the worker, not the task, which reroutes to another
// worker.
//
// Cancellation of ctx severs every in-flight call (like a per-call
// timeout) and drains the queue: not-yet-started tasks fail fast without
// touching the network, and the whole invocation returns promptly with an
// error wrapping the context's cause. A nil ctx never cancels.
func (p *Pool) ParallelCallsCtx(ctx context.Context, tasks int, method string, mkArgs func(t int) interface{}, replies []interface{}) ([]time.Duration, []int, error) {
	times := make([]time.Duration, tasks)
	served := make([]int, tasks)
	for t := range served {
		served[t] = -1
	}
	if tasks == 0 {
		return times, served, nil
	}
	runners := p.runnableWorkers()
	if len(runners) == 0 {
		return times, served, fmt.Errorf("dist: %s: %w", method, ErrNoWorkers)
	}
	ids := make([]int, len(runners))
	for i, w := range runners {
		ids[i] = w.id
	}
	s := newSched(tasks, len(p.workers), times, served, ids)
	var wg sync.WaitGroup
	for _, w := range runners {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			p.runWorker(ctx, w, s, method, mkArgs, replies)
		}(w)
	}
	wg.Wait()
	for _, err := range s.errs {
		if err != nil {
			return times, served, err
		}
	}
	return times, served, nil
}

// ParallelCallsPlacedCtx runs task t on worker place(t) — an explicit
// placement table — with per-call deadlines, one in-flight call per
// worker, and NO rescheduling: stateful protocols address state resident
// on a specific worker, so only the caller (who owns the placement table)
// can decide where a failed task may legally run next. Unlike
// ParallelCallsCtx it returns the error of every task, letting the
// caller re-host exactly the partitions that failed instead of abandoning
// the phase on the first error. Canceled tasks fail with an error wrapping
// the context's cause (a transport-class error, but the caller checks its
// own ctx before classifying failures, so a canceled run is never
// misdiagnosed as a lost worker).
func (p *Pool) ParallelCallsPlacedCtx(ctx context.Context, tasks int, place func(t int) int, method string, mkArgs func(t int) interface{}, replies []interface{}) ([]time.Duration, []error) {
	var wg sync.WaitGroup
	errs := make([]error, tasks)
	times := make([]time.Duration, tasks)
	// One in-flight call per worker at a time.
	locks := make([]sync.Mutex, p.Size())
	for t := 0; t < tasks; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			wid := place(t)
			if wid < 0 || wid >= len(p.workers) {
				errs[t] = fmt.Errorf("dist: task %d placed on worker %d outside [0,%d)", t, wid, len(p.workers))
				return
			}
			if !p.allowed(wid) {
				errs[t] = fmt.Errorf("dist: task %d placed on worker %d not a member of this pool view: %w", t, wid, ErrWorkerDown)
				return
			}
			w := p.workers[wid]
			// Argument construction happens on the master and is not
			// part of the worker's task time.
			args := mkArgs(t)
			fresh := newReply(replies[t])
			locks[w.id].Lock()
			t0 := time.Now()
			errs[t] = p.callWorkerCtx(ctx, w, method, args, fresh)
			times[t] = time.Since(t0)
			locks[w.id].Unlock()
			if errs[t] == nil {
				copyReply(replies[t], fresh)
			}
		}(t)
	}
	wg.Wait()
	return times, errs
}

// runWorker is one worker's runner: it drains the queue one task at a
// time until the queue is empty or the worker's connection dies. No
// dedicated cancellation watcher is needed: after ctx cancels, every
// callWorkerCtx fails instantly on its pre-check (a transport-class
// failure that requeues the task), so
// the pending queue churns through the runners until every live runner
// has tried every task and reapUnservable finalizes them with the
// context's cause — a fast, allocation-light convergence with no
// goroutine left behind.
func (p *Pool) runWorker(ctx context.Context, w *worker, s *sched, method string, mkArgs func(t int) interface{}, replies []interface{}) {
	defer s.detach(w.id)
	for {
		tk := s.next(w.id)
		if tk == nil {
			return
		}
		if tk.args == nil {
			tk.args = mkArgs(tk.idx)
		}
		// Every attempt gets a fresh reply: a late write by an abandoned
		// (timed-out) call, or a retry decoding over a partially-filled
		// value, must never touch the caller's reply.
		fresh := newReply(replies[tk.idx])
		t0 := time.Now()
		err := p.callWorkerCtx(ctx, w, method, tk.args, fresh)
		d := time.Since(t0)
		if err == nil {
			copyReply(replies[tk.idx], fresh)
			s.finish(tk, w.id, d)
		} else {
			s.fail(tk, w.id, err, d, IsTransportError(err))
		}
		if !p.workerRunnable(w) {
			return
		}
	}
}

func newReply(proto interface{}) interface{} {
	return reflect.New(reflect.TypeOf(proto).Elem()).Interface()
}

func copyReply(dst, src interface{}) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// schedTask is one queued task plus its attempt history.
type schedTask struct {
	idx     int
	args    interface{}
	tried   []bool // per worker id; a task runs at most once per worker
	lastErr error
}

// sched is the shared state of one parallelCalls invocation.
type sched struct {
	mu        sync.Mutex
	cond      *sync.Cond
	pending   []*schedTask
	inflight  int
	finalized int
	total     int
	live      []bool // live runner per worker id
	times     []time.Duration
	served    []int // worker whose reply each finished task kept
	errs      []error
}

func newSched(tasks, workers int, times []time.Duration, served, runnerIDs []int) *sched {
	s := &sched{
		total:  tasks,
		live:   make([]bool, workers),
		times:  times,
		served: served,
		errs:   make([]error, tasks),
	}
	s.cond = sync.NewCond(&s.mu)
	for t := 0; t < tasks; t++ {
		s.pending = append(s.pending, &schedTask{idx: t, tried: make([]bool, workers)})
	}
	for _, id := range runnerIDs {
		s.live[id] = true
	}
	return s
}

// next blocks until there is a task runner wid may attempt, all tasks are
// finalized (returns nil), or no task this runner could ever serve remains.
func (s *sched) next(wid int) *schedTask {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.finalized == s.total {
			return nil
		}
		for i, t := range s.pending {
			if !t.tried[wid] {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				s.inflight++
				return t
			}
		}
		// Nothing this runner can take right now. Fail tasks no live
		// runner can ever serve, then wait for a requeue or completion.
		s.reapUnservable()
		if s.finalized == s.total {
			return nil
		}
		s.cond.Wait()
	}
}

// reapUnservable finalizes pending tasks that no live runner may attempt
// (every live runner has already tried them). Called with s.mu held.
func (s *sched) reapUnservable() {
	kept := s.pending[:0]
	for _, t := range s.pending {
		servable := false
		for wid, alive := range s.live {
			if alive && !t.tried[wid] {
				servable = true
				break
			}
		}
		if servable {
			kept = append(kept, t)
			continue
		}
		err := t.lastErr
		if err == nil {
			err = fmt.Errorf("dist: task %d: %w", t.idx, ErrNoWorkers)
		}
		s.errs[t.idx] = err
		s.finalized++
	}
	s.pending = kept
}

func (s *sched) finish(t *schedTask, wid int, d time.Duration) {
	s.mu.Lock()
	s.inflight--
	s.finalized++
	s.times[t.idx] = d
	s.served[t.idx] = wid
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail records a failed attempt. An application failure finalizes the
// task; a transport failure only marks the worker as tried (the task gets
// rerouted, bounded by each transport failure also severing that worker).
func (s *sched) fail(t *schedTask, wid int, err error, d time.Duration, transport bool) {
	s.mu.Lock()
	s.inflight--
	t.tried[wid] = true
	t.lastErr = err
	s.times[t.idx] = d
	if !transport {
		s.errs[t.idx] = err
		s.finalized++
	} else {
		s.pending = append(s.pending, t)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// detach removes a dead runner and fails any pending task only it could
// have served.
func (s *sched) detach(wid int) {
	s.mu.Lock()
	s.live[wid] = false
	s.reapUnservable()
	s.cond.Broadcast()
	s.mu.Unlock()
}
