package assembly

import (
	"context"
	"errors"
	"fmt"
	"time"

	"focus/internal/metrics"
)

// Per-run deadline budgets (DESIGN.md §13). A run context carrying a
// deadline is split into per-phase budgets: each phase gets twice its
// weighted share of the remaining time (weights come from a
// metrics.CostModel fed by measured phase durations, seeded with static
// priors), clamped to [minPhaseBudget, time-to-run-deadline]. The 2×
// slack means an on-model run never trips a phase budget while a single
// wedged phase is cut well before it can eat the whole run's remaining
// time — the later phases' shares are still intact when it is cut.

// ErrPhaseBudget is the cancellation cause when a phase exceeds its slice
// of the run deadline. errors.Is(err, context.DeadlineExceeded) also
// holds on errors derived from it, since the budget is a context deadline.
var ErrPhaseBudget = errors.New("assembly: phase deadline budget exhausted")

// phaseOrder is the canonical phase sequence of a full variant-calling
// run (plain Trim runs skip Variants). Budget arithmetic uses the tail of
// this order as "remaining phases"; including Variants in a run that will
// not execute it only makes the estimate conservative, which the 2×
// slack absorbs.
var phaseOrder = []string{"Transitive", "Variants", "Containment", "Errors", "Paths"}

// phasePriors weight the phases before any measurement exists: the two
// all-pairs scans (transitive reduction, containment) dominate; the
// linear scans are cheap.
var phasePriors = map[string]float64{
	"Transitive":  3,
	"Variants":    1,
	"Containment": 3,
	"Errors":      1,
	"Paths":       1,
}

// minPhaseBudget floors every phase budget: a model gone confidently
// wrong (one tiny observation) must not hand a phase a microsecond slice.
const minPhaseBudget = 100 * time.Millisecond

// SetContext bounds the whole run by ctx: cancellation (explicit, signal,
// or deadline) stops every subsequent — and the currently running — phase
// at the next grain boundary. When ctx carries a deadline, each phase
// additionally runs under its budgeted slice of the remaining time. Call
// before the first phase; a nil ctx (the default) means unbounded.
func (d *Driver) SetContext(ctx context.Context) { d.runCtx = ctx }

// SetCostModel replaces the per-phase cost model used to split the run
// deadline into phase budgets. A resident master shares one model across
// all jobs on a fleet, so the first job's measured phase durations inform
// every later job's budgets. Nil keeps the default (a fresh model lazily
// created from the static priors). Call before the first phase.
func (d *Driver) SetCostModel(m *metrics.CostModel) {
	if m != nil {
		d.costs = m
	}
}

// PhasePriors returns a copy of the static phase-weight priors, so a
// caller building a shared CostModel seeds it exactly as the driver
// would seed its private one.
func PhasePriors() map[string]float64 {
	priors := make(map[string]float64, len(phasePriors))
	for ph, w := range phasePriors {
		priors[ph] = w
	}
	return priors
}

// remainingPhases returns the canonical tail of the phase order starting
// at phase (the phase itself included).
func remainingPhases(phase string) []string {
	for i, ph := range phaseOrder {
		if ph == phase {
			return phaseOrder[i:]
		}
	}
	return []string{phase}
}

// phaseContext derives the context one phase runs under from the run
// context: the phase's deadline budget (when the run has a deadline) and
// the watchdog's cancel authority (when one is enabled) stack on top of
// d.runCtx. The returned finish func must be deferred: it stops the
// watchdog, feeds the phase's duration back into the cost model, and
// releases the derived contexts. With no run context and no watchdog it
// returns a nil context — the zero-cost path everywhere downstream.
func (d *Driver) phaseContext(phase string) (context.Context, func()) {
	watchdog := d.wdWindow > 0 && d.Pool != nil && !d.localOnly
	if d.runCtx == nil && !watchdog {
		return nil, func() {}
	}
	base := d.runCtx
	if base == nil {
		base = context.Background()
	}
	ctx := base
	var cancels []func()
	if runDeadline, ok := base.Deadline(); ok {
		if d.costs == nil {
			d.costs = metrics.NewCostModel(phasePriors, 0)
		}
		remaining := time.Until(runDeadline)
		shares := d.costs.Split(remaining, remainingPhases(phase))
		budget := 2 * shares[0]
		if budget < minPhaseBudget {
			budget = minPhaseBudget
		}
		if budget > remaining {
			budget = remaining
		}
		cause := fmt.Errorf("assembly: %s phase: %w", phase, ErrPhaseBudget)
		dctx, dcancel := context.WithDeadlineCause(ctx, time.Now().Add(budget), cause)
		ctx = dctx
		cancels = append(cancels, dcancel)
	}
	var stopWd func()
	if watchdog {
		wctx, wcancel := context.WithCancelCause(ctx)
		ctx = wctx
		cancels = append(cancels, func() { wcancel(nil) })
		stopWd = d.startWatchdog(wctx, wcancel, phase)
	}
	start := time.Now()
	finish := func() {
		if stopWd != nil {
			stopWd()
		}
		// Only completed phases teach the model: a canceled phase's
		// truncated duration would read as "cheap".
		if d.costs != nil && ctx.Err() == nil {
			d.costs.Observe(phase, time.Since(start))
		}
		for _, c := range cancels {
			c()
		}
	}
	return ctx, finish
}
