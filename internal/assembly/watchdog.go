package assembly

import (
	"context"
	"errors"
	"log"
	"time"
)

// The phase watchdog (DESIGN.md §13) detects no-progress: the pool's
// completion counter not moving for a full window. Per-call timeouts
// catch a worker that is slow to answer; the watchdog catches the cases
// timeouts cannot be armed for (CallTimeout=0 deployments) or that
// timeouts alone don't resolve (a worker hanging forever while holding a
// pinned partition). Escalation ladder on a detected stall:
//
//  1. log — one warning naming the phase and window;
//  2. kick — sever the connection of every worker whose in-flight call
//     has been running for the full window (Pool.Kick): its tasks fail
//     with a transport-class error and reschedule, and a stateful driver
//     re-hosts its partitions, exactly as if the worker had crashed;
//  3. cancel — when kicks are exhausted (or nothing is kickable) and the
//     stall persists, cancel the phase context with ErrStalled, which
//     unwinds the run through the normal cancellation path (checkpoint,
//     resumable exit).
//
// The watchdog samples the counter every window/4. Kicks are budgeted
// across the whole phase, not per stall — one kick per pool worker — and
// each kick resets the stall clock (the rescheduled work gets a fresh
// window), so an unbounded budget would let one poisoned task kick every
// worker forever.

// ErrStalled is the cancellation cause when the watchdog gives up on a
// phase that stopped completing tasks.
var ErrStalled = errors.New("assembly: run stalled: no task completions within the watchdog window")

// EnableWatchdog arms the watchdog for every subsequent phase: window is
// the no-completions span that counts as a stall. Call before the first
// phase; a window <= 0 disarms it.
func (d *Driver) EnableWatchdog(window time.Duration) {
	d.wdWindow = max(window, 0)
}

// startWatchdog spawns the monitor goroutine for one phase and returns a
// stop func that is guaranteed to have reaped it on return (no leaked
// goroutine for NoLeaks to find).
func (d *Driver) startWatchdog(ctx context.Context, cancel context.CancelCauseFunc, phase string) func() {
	window := d.wdWindow
	maxKicks := d.Pool.Size()
	if d.wdNoKicks {
		maxKicks = 0
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(max(window/4, time.Millisecond))
		defer ticker.Stop()
		last := d.Pool.Completions()
		stallStart := time.Now()
		warned := false
		kicks := 0
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if c := d.Pool.Completions(); c != last {
				last = c
				stallStart = time.Now()
				warned = false
				continue
			}
			if time.Since(stallStart) < window {
				continue
			}
			if !warned {
				log.Printf("assembly: watchdog: %s phase made no progress for %v", phase, window)
				warned = true
				continue
			}
			kicked := false
			for _, w := range d.Pool.StuckWorkers(window) {
				if kicks >= maxKicks {
					break
				}
				if d.Pool.Kick(w) {
					kicks++
					kicked = true
					log.Printf("assembly: watchdog: kicked stuck worker %d (%s phase, kick %d/%d); its tasks reschedule",
						w, phase, kicks, maxKicks)
				}
			}
			if kicked {
				// The rescheduled work gets a fresh window before the next
				// escalation.
				stallStart = time.Now()
				warned = false
				continue
			}
			log.Printf("assembly: watchdog: %s phase still stalled after %d kick(s); cancelling run", phase, kicks)
			cancel(ErrStalled)
			return
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
