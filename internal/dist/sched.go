package dist

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// This file runs a batch of calls on the workers an explicit placement
// table names (Session.ParallelCallsPlacedCtx): the protocols that pin
// state to a worker (assembly's Load and Phase) decide themselves where a
// failed task may run next, so the session never moves a task.

// ParallelCallsPlacedCtx runs task t on worker place(t) — an explicit
// placement table — with per-call deadlines, one in-flight call per
// worker, and NO rescheduling: stateful protocols address state resident
// on a specific worker, so only the caller (who owns the placement table)
// can decide where a failed task may legally run next. It returns the
// error of every task, letting the caller re-host exactly the partitions
// that failed instead of abandoning the phase on the first error. Each
// call decodes into a copy of the task's reply, which replaces it on
// success, so a late write by a severed call never touches the caller's
// reply. Canceled tasks fail with an error wrapping
// the context's cause (a transport-class error, but the caller checks its
// own ctx before classifying failures, so a canceled run is never
// misdiagnosed as a lost worker).
func (s *Session) ParallelCallsPlacedCtx(ctx context.Context, tasks int, place func(t int) int, method string, mkArgs func(t int) interface{}, replies []interface{}) ([]time.Duration, []error) {
	var wg sync.WaitGroup
	errs := make([]error, tasks)
	times := make([]time.Duration, tasks)
	// One in-flight call per worker at a time.
	locks := make([]sync.Mutex, len(s.conns))
	for t := 0; t < tasks; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			wid := place(t)
			if wid < 0 || wid >= len(s.conns) {
				errs[t] = fmt.Errorf("dist: task %d placed on worker %d outside [0,%d)", t, wid, len(s.conns))
				return
			}
			// Argument construction happens on the master and is not
			// part of the worker's task time.
			args := mkArgs(t)
			fresh := shallowCopy(replies[t])
			locks[wid].Lock()
			t0 := time.Now()
			errs[t] = s.Call(ctx, wid, method, args, fresh)
			times[t] = time.Since(t0)
			locks[wid].Unlock()
			if errs[t] == nil {
				copyReply(replies[t], fresh)
			}
		}(t)
	}
	wg.Wait()
	return times, errs
}

// shallowCopy returns a fresh copy of the value proto points to: one
// attempt's reply, or one connection's service (Server). Callers pass a
// proto holding nothing a decoder or a call writes into. A proto that is
// not a pointer is returned as is: its methods copy it at every call.
func shallowCopy(proto interface{}) interface{} {
	v := reflect.ValueOf(proto)
	if v.Kind() != reflect.Pointer {
		return proto
	}
	c := reflect.New(v.Type().Elem())
	c.Elem().Set(v.Elem())
	return c.Interface()
}

func copyReply(dst, src interface{}) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}
