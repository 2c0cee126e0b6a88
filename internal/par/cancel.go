package par

import "context"

// Gate is the cancellation primitive of the stage pools: a nil-safe,
// allocation-free view of a context's done channel, polled at grain
// boundaries (per cluster, per matching round, per query, per pipeline
// scan). The contract, shared by every par-governed pool:
//
//   - Stopped() is a non-blocking poll: a single select with a default
//     arm over a pre-fetched channel. On the hot path it costs two
//     predictable branches — cheap enough for the tightest grain the
//     governor hands out, which is what keeps the *_parallel bench
//     probes regression-free with cancellation plumbed in.
//
//   - A nil *Gate never stops. Stages keep one code path: callers
//     without a context pass nil and pay only the nil check.
//
//   - Stages poll at grain boundaries only, never mid-item: a stage that
//     observes Stopped() abandons remaining work and returns. Partial
//     results are permitted to be arbitrary (callers discard everything
//     on a non-nil ctx error) but must be memory-safe — multi-phase
//     stages whose later phases index arrays sized by earlier phases
//     (e.g. the CSR scatter over the counted degrees) must bail between
//     phases, not resume with partial counts.
type Gate struct {
	done <-chan struct{}
	ctx  context.Context
}

// GateFor returns the gate of ctx, or nil when ctx is nil or can never
// be canceled (context.Background and friends) — the zero-cost case.
func GateFor(ctx context.Context) *Gate {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return &Gate{done: done, ctx: ctx}
}

// Stopped reports whether the gate's context has been canceled. It never
// blocks and is safe on a nil gate (always false).
func (g *Gate) Stopped() bool {
	if g == nil {
		return false
	}
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// Err returns the context's error: nil while running, the cancellation
// cause after Stopped. Safe on a nil gate.
func (g *Gate) Err() error {
	if g == nil || g.ctx.Err() == nil {
		return nil
	}
	return context.Cause(g.ctx)
}
