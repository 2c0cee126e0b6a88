package assembly

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"focus/internal/dist"
	"focus/internal/metrics"
	"focus/internal/par"
)

// Driver is the master process: it owns the hybrid graph, ships each
// partition to a worker, applies the removals the workers record, and
// joins the sub-paths they extract (paper §V). Each partition is shipped
// to its worker once (Load), and every phase sends it only the removals
// it stores (stateful.go); without a usable pool the phases run on the
// master (runPhaseLocal).
type Driver struct {
	Pool   *dist.Pool
	G      *DiGraph
	Labels []int32 // partition of each hybrid node
	K      int
	Cfg    Config

	runID        string
	loaded       bool
	localOnly    bool // degraded mode: pool unusable, phases run on the master
	degradeRsn   DegradeReason
	pendingNodes []int32
	pendingEdges []EdgePair

	// Stateful placement state (DESIGN.md §11). placement[t] is the worker
	// currently hosting partition t (-1 = homeless, needs a re-host before
	// the next phase); partEpoch[t] is the generation stamp of that copy.
	// epochGen is a driver-global counter: every Load *attempt* draws a
	// strictly larger epoch, so state stored by an abandoned (timed-out)
	// Load can never collide with a later legitimate generation.
	placement     []int
	partEpoch     []int64
	epochGen      int64
	rebalanceFlag int32 // set by the pool's reconnect hook, drained at phase start
	// stored[t] lists the node ids of partition t's subgraph as last
	// Loaded: the only removals its worker can act on (phaseDeltas).
	stored [][]int32

	// Checkpoint/resume state (ckpt.go). donePhases lists completed
	// graph-mutating phases; statsMirror/variantsMirror mirror the
	// caller-owned accumulators so checkpoints are self-contained;
	// resumeDone marks phases to skip after ResumeDriver.
	ckpt           *CheckpointConfig
	donePhases     []string
	resumeDone     map[string]bool
	statsMirror    TrimStats
	variantsMirror []Variant

	// runCtx bounds the whole run (nil = unbounded): every phase runs
	// under it, so the default path costs one nil check per phase.
	runCtx context.Context

	// reg is the optional operational-metrics sink (DESIGN.md §15): fault
	// counters and per-phase latency histograms. Nil (the default) costs a
	// nil check per event; never wire-encoded (it lives outside Config).
	reg *metrics.Registry

	// extractWorkers bounds the parallel subgraph-extraction fan-out (0 =
	// GOMAXPROCS, 1 = serial; equivalence tests pin both and compare).
	extractWorkers int
	ext            *extractor

	// Reusable partitionNodes scratch: the count and view arrays persist
	// across phases, but the flat id backing is allocated fresh per call
	// (one allocation per phase instead of k append-grown lists). It must
	// NOT be reused: the partition views become Subgraph.Local in RPC
	// args, and a timed-out call's abandoned encoder goroutine may still
	// be reading them when the next phase (or a local fallback within the
	// same phase) rebuilds the lists.
	partCounts []int32
	partView   [][]int32
}

// extractor returns the lazily-built subgraph extractor (the graph and
// labels are fixed after NewDriver).
func (d *Driver) extractor() *extractor {
	if d.ext == nil {
		d.ext = &extractor{g: d.G, labels: d.Labels}
	}
	return d.ext
}

// subgraphsCtx builds every partition's view in parallel, bounded by
// ctx: extraction abandons remaining partitions once the context cancels.
// The caller must check ctx before using the (partial) result.
func (d *Driver) subgraphsCtx(ctx context.Context, parts [][]int32) []Subgraph {
	return d.extractor().subgraphs(parts, d.extractWorkers, par.GateFor(ctx))
}

// SetContext bounds the whole run by ctx: cancellation (explicit, signal,
// or deadline) stops every subsequent — and the currently running — phase
// at the next grain boundary. Call before the first phase; a nil ctx (the
// default) means unbounded.
func (d *Driver) SetContext(ctx context.Context) { d.runCtx = ctx }

// ctxErr returns ctx's cancellation cause, or nil while it is live (or
// nil). Driver loops consult it BEFORE classifying a call error: a
// canceled call looks like a transport failure to the pool, and
// misreading it would re-host partitions — or worse, complete the run
// locally — instead of stopping.
func ctxErr(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

// DegradeReason explains why a driver is running phases locally instead
// of on the worker pool.
type DegradeReason int

const (
	// DegradeNone: not degraded — phases run on the worker pool.
	DegradeNone DegradeReason = iota
	// DegradeNoPool: degraded by choice — the driver was constructed
	// without a pool, so local execution is the configuration, not a
	// failure.
	DegradeNoPool
	// DegradeFailure: degraded by failure — the pool became unusable
	// mid-run (every worker lost, or re-hosting could not converge) and
	// the driver fell back to the master as the terminal safety net.
	DegradeFailure
)

func (r DegradeReason) String() string {
	switch r {
	case DegradeNone:
		return "not degraded"
	case DegradeNoPool:
		return "degraded by choice (no pool)"
	case DegradeFailure:
		return "degraded by failure (pool unusable)"
	}
	return fmt.Sprintf("DegradeReason(%d)", int(r))
}

// SetMetrics attaches an operational-metrics registry: re-host, lost-
// partition and degradation counters plus per-phase latency histograms
// land in it. Nil (the default) disables instrumentation. Call before the
// first phase.
func (d *Driver) SetMetrics(reg *metrics.Registry) { d.reg = reg }

// DegradeReason reports whether, and why, the driver runs phases locally
// (master-side) instead of on the worker pool: DegradeNone while the pool
// is in use, DegradeNoPool when the driver was built without a pool,
// DegradeFailure when the pool became unusable mid-run.
func (d *Driver) DegradeReason() DegradeReason { return d.degradeRsn }

var runCounter int64

// removeEdge deletes an edge and records it for the next phase's delta.
func (d *Driver) removeEdge(e EdgePair) {
	d.G.RemoveEdge(e.From, e.To)
	if !d.localOnly {
		d.pendingEdges = append(d.pendingEdges, e)
	}
}

// removeNode deletes a node and records it for the next phase's delta.
func (d *Driver) removeNode(v int32) {
	d.G.RemoveNode(v)
	if !d.localOnly {
		d.pendingNodes = append(d.pendingNodes, v)
	}
}

// ensureLoaded ships every partition to a worker once, establishing the
// initial placement table. Placement goes through the same least-loaded
// assignment re-hosting uses; with all workers healthy it reduces to the
// classic round-robin t % Size() map. The run id is drawn once, at the
// first attempt, so Close can unload whatever any attempt stored.
func (d *Driver) ensureLoaded(ctx context.Context) error {
	if d.loaded {
		return nil
	}
	if d.runID == "" {
		d.runID = fmt.Sprintf("run%d", atomic.AddInt64(&runCounter, 1))
	}
	d.placement = make([]int, d.K)
	d.partEpoch = make([]int64, d.K)
	d.stored = make([][]int32, d.K)
	all := make([]int, d.K)
	for t := 0; t < d.K; t++ {
		d.placement[t] = -1
		all[t] = t
	}
	if err := d.rehostParts(ctx, all, false); err != nil {
		return fmt.Errorf("assembly: loading partitions: %w", err)
	}
	// The shipped subgraphs reflect the current graph: nothing pending.
	d.pendingNodes, d.pendingEdges = nil, nil
	d.loaded = true
	return nil
}

// maxRounds bounds the re-host retry loops: each round either makes
// progress or evicts a worker (the pool's MaxFailures), so a bound
// proportional to the pool size is enough for any reachable schedule.
func (d *Driver) maxRounds() int { return 2*d.Pool.Size() + 3 }

// rehostParts places every listed partition on a healthy worker: the
// partition's subgraph is rebuilt from the master's authoritative graph
// (which already reflects every applied removal, so the rebuilt copy
// equals the lost copy plus any outstanding delta) and Loaded at a
// freshly drawn epoch. Assignment is least-loaded-first over the healthy
// workers, counting only partitions that keep their current home, so a
// freshly reconnected (empty) worker naturally absorbs the moves.
// Placement, epoch and stored node ids are committed per partition only
// on Load success, for every partition that succeeded, even when another
// failed for good; a failed Load leaves the previous placement intact
// (still valid when the move was elective, retried when the home was
// lost).
func (d *Driver) rehostParts(ctx context.Context, parts []int, logMoves bool) error {
	moving := make(map[int]bool, len(parts))
	for _, p := range parts {
		moving[p] = true
	}
	for round := 0; len(parts) > 0; round++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return fmt.Errorf("assembly: re-hosting %d partition(s): %w", len(parts), cerr)
		}
		if round >= d.maxRounds() {
			return fmt.Errorf("assembly: %d partition(s) still homeless after %d re-host rounds (last partition %d)",
				len(parts), round, parts[0])
		}
		healthy := d.Pool.HealthyIDs()
		if len(healthy) == 0 {
			return fmt.Errorf("assembly: re-hosting %d partition(s): %w", len(parts), dist.ErrNoWorkers)
		}
		load := make(map[int]int, len(healthy))
		for _, w := range healthy {
			load[w] = 0
		}
		for p, w := range d.placement {
			if _, ok := load[w]; ok && !moving[p] {
				load[w]++
			}
		}
		target := make([]int, len(parts))
		epochs := make([]int64, len(parts))
		for i := range parts {
			best := healthy[0]
			for _, w := range healthy[1:] {
				if load[w] < load[best] {
					best = w
				}
			}
			target[i] = best
			load[best]++
			d.epochGen++
			epochs[i] = d.epochGen
		}
		// Fresh extraction per round: the subgraphs (including the Local
		// views of partitionNodes) ship inside RPC args, and an abandoned
		// timed-out Load's encoder may outlive this call, so none of this
		// memory is recycled.
		allParts := d.partitionNodes()
		x := d.extractor()
		sc := x.get()
		subs := make([]Subgraph, len(parts))
		for i, p := range parts {
			subs[i] = x.subgraph(sc, int32(p), allParts[p])
		}
		x.put(sc)
		replies := make([]interface{}, len(parts))
		for i := range replies {
			replies[i] = &LoadReply{}
		}
		_, errs := d.Pool.ParallelCallsPlacedCtx(ctx, len(parts), func(t int) int { return target[t] }, "Load",
			func(t int) interface{} {
				return &LoadArgs{RunID: d.runID, Sub: subs[t], Epoch: epochs[t]}
			}, replies)
		var remaining []int
		var fatal error
		for i, err := range errs {
			p := parts[i]
			if err == nil {
				d.placement[p] = target[i]
				d.partEpoch[p] = epochs[i]
				d.stored[p] = nodeIDs(subs[i].Nodes)
				if logMoves {
					d.reg.Counter("assembly_rehost_total").Inc()
					log.Printf("assembly: partition %d re-hosted onto worker %d (epoch %d)", p, target[i], epochs[i])
				}
				continue
			}
			if fatal != nil {
				continue
			}
			// Cancellation first: a canceled Load is transport-shaped but
			// must stop the loop, not elect another target.
			if cerr := ctxErr(ctx); cerr != nil {
				fatal = fmt.Errorf("assembly: loading partition %d: %w", p, cerr)
				continue
			}
			if dist.IsTransportError(err) || IsRehostable(err) {
				d.reg.Counter("assembly_rehost_failed_total").Inc()
				log.Printf("assembly: re-hosting partition %d onto worker %d failed (%v); retrying elsewhere", p, target[i], err)
				remaining = append(remaining, p)
				continue
			}
			fatal = fmt.Errorf("assembly: loading partition %d onto worker %d: %w", p, target[i], err)
		}
		if fatal != nil {
			return fatal
		}
		parts = remaining
	}
	return nil
}

// nodeIDs returns the ids of a shipped subgraph's nodes, in its order.
func nodeIDs(nodes []WireNode) []int32 {
	ids := make([]int32, len(nodes))
	for i := range nodes {
		ids[i] = nodes[i].ID
	}
	return ids
}

// phaseDeltas hands out the removals applied since the last phase, one
// delta per partition: partition t gets the removed nodes in stored[t]
// and the removed edges with both endpoints in stored[t], in the order
// they were removed. The split is exact. A Loaded subgraph holds only
// edges between its stored nodes, and applyDelta ignores any removal
// outside them, so every worker's copy ends where the whole delta would
// have left it.
func (d *Driver) phaseDeltas() []Delta {
	nodes, edges := d.pendingNodes, d.pendingEdges
	d.pendingNodes, d.pendingEdges = nil, nil
	deltas := make([]Delta, d.K)
	if len(nodes) == 0 && len(edges) == 0 {
		return deltas
	}
	x := d.extractor()
	sc := x.get()
	defer x.put(sc)
	mark := sc.mark
	for t, ids := range d.stored {
		epoch := sc.next()
		for _, v := range ids {
			mark[v] = epoch
		}
		dt := &deltas[t]
		for _, v := range nodes {
			if mark[v] == epoch {
				dt.RemovedNodes = append(dt.RemovedNodes, v)
			}
		}
		for _, e := range edges {
			if mark[e.From] == epoch && mark[e.To] == epoch {
				dt.RemovedEdges = append(dt.RemovedEdges, e)
			}
		}
	}
	return deltas
}

// maybeRebalance drains the reconnect flag and, when a worker has come
// back, elects partitions to move from the most- to the least-loaded
// healthy workers (spread < 2 is already balanced). Elective moves keep
// their old placement until the new Load succeeds, so a failed move
// costs nothing. Called at phase boundaries only — mid-phase the
// placement table must stay stable under the in-flight calls.
func (d *Driver) maybeRebalance(ctx context.Context) {
	if atomic.SwapInt32(&d.rebalanceFlag, 0) == 0 || !d.loaded {
		return
	}
	healthy := d.Pool.HealthyIDs()
	if len(healthy) < 2 {
		return
	}
	load := make(map[int]int, len(healthy))
	for _, w := range healthy {
		load[w] = 0
	}
	// Partitions per healthy worker, and each worker's highest partition
	// (moving the highest-numbered partition first is arbitrary but
	// deterministic for a given placement).
	partsOf := make(map[int][]int, len(healthy))
	for p, w := range d.placement {
		if _, ok := load[w]; ok {
			load[w]++
			partsOf[w] = append(partsOf[w], p)
		}
	}
	var moves []int
	for {
		maxW, minW := healthy[0], healthy[0]
		for _, w := range healthy[1:] {
			if load[w] > load[maxW] {
				maxW = w
			}
			if load[w] < load[minW] {
				minW = w
			}
		}
		if load[maxW]-load[minW] < 2 {
			break
		}
		ps := partsOf[maxW]
		p := ps[len(ps)-1]
		partsOf[maxW] = ps[:len(ps)-1]
		load[maxW]--
		load[minW]++ // tentative: rehostParts re-derives the real target
		moves = append(moves, p)
	}
	if len(moves) == 0 {
		return
	}
	log.Printf("assembly: rebalancing %d partition(s) after worker reconnect", len(moves))
	if err := d.rehostParts(ctx, moves, true); err != nil {
		// Elective moves that failed keep their old (valid) placement;
		// truly homeless partitions get re-hosted by the phase loop.
		log.Printf("assembly: rebalance incomplete (%v); continuing with current placement", err)
	}
}

// Close releases the run's worker-side state and detaches the driver from
// the pool's reconnect notifications. It unloads whenever a Load was
// attempted: a failed initial Load may still have stored some partitions.
func (d *Driver) Close() error {
	if d.Pool != nil {
		d.Pool.SetReconnectHook(nil)
	}
	if d.runID == "" {
		return nil
	}
	var firstErr error
	// Members, not 0..Size(): on a view only member workers are reachable
	// (and only they can hold this run's state).
	for _, w := range d.Pool.Members() {
		var ok dist.Ack
		if err := d.Pool.Call(w, "Unload", &UnloadArgs{RunID: d.runID}, &ok); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.loaded, d.runID = false, ""
	return firstErr
}

// runPhase executes one named phase over all partitions and returns
// per-partition replies plus task times. When the pool becomes unusable
// (every worker lost, or re-hosting cannot converge) the phase degrades to
// local execution on the master with a logged warning instead of failing
// the run.
func (d *Driver) runPhase(phase string, vcfg VariantConfig) ([]PhaseReply, []time.Duration, error) {
	if cerr := ctxErr(d.runCtx); cerr != nil {
		return nil, nil, cerr
	}
	if d.reg != nil {
		start := time.Now()
		defer func() {
			d.reg.Histogram("assembly_phase_seconds_" + strings.ToLower(phase)).Observe(time.Since(start))
		}()
	}
	if d.localOnly {
		res, lerr := d.runPhaseLocal(d.runCtx, phase, vcfg)
		return res, nil, lerr
	}
	return d.runPhaseStateful(d.runCtx, phase, vcfg)
}

// checkReply rejects a worker's reply the master cannot apply: node or
// edge ids outside [0, NumNodes), empty paths, and variant anchors or
// alleles out of range (a fork's To is -1). Every reply of a phase is
// checked before any is applied, so a bad one leaves the graph untouched.
func (d *Driver) checkReply(phase string, part, worker int, r *PhaseReply) error {
	n := int32(d.G.NumNodes())
	var bad string
	check := func(what string, v int32) {
		if bad == "" && (v < 0 || v >= n) {
			bad = fmt.Sprintf("%s %d outside [0,%d)", what, v, n)
		}
	}
	for _, es := range [2][]EdgePair{r.Edges, r.Removal.Edges} {
		for _, e := range es {
			check("edge tail", e.From)
			check("edge head", e.To)
		}
	}
	for _, v := range r.Removal.Nodes {
		check("node", v)
	}
	for _, p := range r.Paths {
		if len(p) == 0 && bad == "" {
			bad = "an empty path"
		}
		for _, v := range p {
			check("path node", v)
		}
	}
	for _, va := range r.Variants {
		check("variant anchor", va.From)
		if va.To != -1 {
			check("variant anchor", va.To)
		}
		check("variant allele", va.AlleleA)
		check("variant allele", va.AlleleB)
	}
	if bad == "" {
		return nil
	}
	return fmt.Errorf("assembly: %s phase: worker %d answered partition %d with %s", phase, worker, part, bad)
}

// runPhaseStateful drives one phase of the delta protocol with partition
// re-hosting: partitions whose worker was lost mid-phase (or
// whose stored state was epoch-fenced) are rebuilt from the master's
// authoritative graph, re-Loaded onto a surviving worker, and retried —
// the run only degrades to local execution when no workers survive or
// re-hosting cannot converge. The master's graph does not mutate during
// a phase (removals are applied by the Trim* callers afterwards), so a
// re-hosted copy equals the stored copy plus this phase's delta, and its
// delta re-applied to it is an idempotent no-op: every partition computes
// on identical graph state no matter how many times it was re-hosted,
// keeping output byte-identical to a fault-free run.
func (d *Driver) runPhaseStateful(ctx context.Context, phase string, vcfg VariantConfig) ([]PhaseReply, []time.Duration, error) {
	if err := d.ensureLoaded(ctx); err != nil {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, nil, cerr
		}
		if d.fallBackStateful(phase, err) {
			res, lerr := d.runPhaseLocal(ctx, phase, vcfg)
			return res, nil, lerr
		}
		return nil, nil, err
	}
	d.maybeRebalance(ctx)
	deltas := d.phaseDeltas()
	results := make([]PhaseReply, d.K)
	times := make([]time.Duration, d.K)
	pending := make([]int, d.K)
	for t := range pending {
		pending[t] = t
	}
	for round := 0; len(pending) > 0; round++ {
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, times, cerr
		}
		if round >= d.maxRounds() {
			err := fmt.Errorf("assembly: %s phase: partition(s) %v still failing after %d re-host rounds", phase, pending, round)
			if d.fallBackStateful(phase, err) {
				res, lerr := d.runPhaseLocal(ctx, phase, vcfg)
				return res, times, lerr
			}
			return nil, times, err
		}
		// Re-home partitions that lost their worker in an earlier round.
		var homeless []int
		for _, p := range pending {
			if w := d.placement[p]; w < 0 || !d.Pool.Healthy(w) {
				homeless = append(homeless, p)
			}
		}
		if err := d.rehostParts(ctx, homeless, true); err != nil {
			if cerr := ctxErr(ctx); cerr != nil {
				return nil, times, cerr
			}
			if d.fallBackStateful(phase, err) {
				res, lerr := d.runPhaseLocal(ctx, phase, vcfg)
				return res, times, lerr
			}
			return nil, times, err
		}
		batch := pending
		replies := make([]interface{}, len(batch))
		for i := range replies {
			replies[i] = &PhaseReply{}
		}
		// place/mkArgs read the placement and epoch tables from the
		// scheduler's goroutines; the driver does not mutate them while the
		// call is in flight.
		ptimes, errs := d.Pool.ParallelCallsPlacedCtx(ctx, len(batch), func(t int) int { return d.placement[batch[t]] }, "Phase",
			func(t int) interface{} {
				p := batch[t]
				return &PhaseArgs{RunID: d.runID, Part: int32(p), Phase: phase, Epoch: d.partEpoch[p],
					Delta: deltas[p], Cfg: d.Cfg, VCfg: vcfg}
			}, replies)
		var next []int
		for i, err := range errs {
			p := batch[i]
			times[p] = ptimes[i]
			if err == nil {
				results[p] = *replies[i].(*PhaseReply)
				if err := d.checkReply(phase, p, d.placement[p], &results[p]); err != nil {
					return nil, times, err
				}
				continue
			}
			// Cancellation before classification: a severed-by-cancel call is
			// transport-shaped but must stop the phase, not re-host its
			// partition.
			if cerr := ctxErr(ctx); cerr != nil {
				return nil, times, cerr
			}
			if dist.IsTransportError(err) || IsRehostable(err) {
				d.reg.Counter("assembly_partition_lost_total").Inc()
				log.Printf("assembly: %s phase: partition %d lost on worker %d (%v); re-hosting", phase, p, d.placement[p], err)
				d.placement[p] = -1
				next = append(next, p)
				continue
			}
			// Application-level service error: re-hosting cannot fix a bug.
			return nil, times, err
		}
		pending = next
	}
	return results, times, nil
}

// fallBackStateful decides whether a failed stateful phase should degrade
// to local execution, and if so makes the degradation sticky: worker-side
// partitions have missed this phase's delta, so the distributed state is
// stale for the rest of the run. Application-level errors (a service bug,
// an unknown phase) still propagate.
func (d *Driver) fallBackStateful(phase string, err error) bool {
	if !dist.IsTransportError(err) && d.Pool.NumHealthy() > 0 {
		return false
	}
	d.localOnly = true
	d.degradeRsn = DegradeFailure
	d.reg.Counter("assembly_degraded_total").Inc()
	d.pendingNodes, d.pendingEdges = nil, nil
	// The cause names the partition/worker that triggered the degradation
	// (rehostParts and the phase loop build it that way).
	log.Printf("assembly: %s phase: pool unusable, %d/%d workers healthy; cause: %v; falling back to local execution for the rest of the run",
		phase, d.Pool.NumHealthy(), d.Pool.Size(), err)
	return true
}

// runPhaseLocal executes one phase of every partition on the master. The
// master's graph always holds the current state, so local results are
// identical to what a healthy pool would return. Partition scans fan out
// over the same bounded pool as subgraph extraction, so degraded mode
// keeps the workers' parallelism (each result depends only on its own
// partition — output is identical at any worker count). A cancel lands at
// the next per-partition grain boundary; partial results are discarded
// and the context's cause is returned.
func (d *Driver) runPhaseLocal(ctx context.Context, phase string, vcfg VariantConfig) ([]PhaseReply, error) {
	gate := par.GateFor(ctx)
	subs := d.subgraphsCtx(ctx, d.partitionNodes())
	results := make([]PhaseReply, d.K)
	errs := make([]error, d.K)
	par.Run(par.Limit(d.extractWorkers), d.K, func(_, t int) {
		if !gate.Stopped() {
			results[t], errs[t] = scanPhase(phase, &subs[t], d.Cfg, vcfg)
		}
	})
	if gate.Stopped() {
		return nil, ctxErr(ctx)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// NewDriver validates and assembles a driver. A nil pool is allowed and
// means local execution by choice: every phase runs on the master and
// DegradeReason() reports DegradeNoPool (as opposed to DegradeFailure,
// the mid-run loss of a real pool).
func NewDriver(pool *dist.Pool, g *DiGraph, labels []int32, k int, cfg Config) (*Driver, error) {
	if len(labels) != g.NumNodes() {
		return nil, fmt.Errorf("assembly: %d labels for %d nodes", len(labels), g.NumNodes())
	}
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			return nil, fmt.Errorf("assembly: node %d has partition %d outside [0,%d)", v, l, k)
		}
	}
	if cfg.MinEdgeOverlap == 0 {
		cfg = DefaultConfig()
	}
	d := &Driver{Pool: pool, G: g, Labels: labels, K: k, Cfg: cfg}
	if pool == nil {
		d.localOnly = true
		d.degradeRsn = DegradeNoPool
	} else {
		// A reconnected worker is an empty rebalance target; the flag is
		// drained at the next phase boundary (mid-phase the placement
		// table must not move under in-flight calls).
		pool.SetReconnectHook(func(worker int) {
			atomic.StoreInt32(&d.rebalanceFlag, 1)
		})
	}
	return d, nil
}

// partitionNodes returns the live node ids of each partition (one O(n)
// scan shared by all subgraph extractions of a phase). Counted presize
// into one flat backing: two scans, a single allocation per phase. The
// backing is deliberately fresh each call — the views ship inside RPC
// args (Subgraph.Local), and an abandoned attempt's encoder may outlive
// the phase, so the memory must never be recycled under it.
func (d *Driver) partitionNodes() [][]int32 {
	if d.partCounts == nil {
		d.partCounts = make([]int32, d.K)
		d.partView = make([][]int32, d.K)
	}
	counts := d.partCounts
	for i := range counts {
		counts[i] = 0
	}
	n := d.G.NumNodes()
	total := 0
	for v := 0; v < n; v++ {
		if !d.G.Removed[v] {
			counts[d.Labels[v]]++
			total++
		}
	}
	buf := make([]int32, total)
	out := d.partView
	off := 0
	for p := 0; p < d.K; p++ {
		out[p] = buf[off : off : off+int(counts[p])]
		off += int(counts[p])
	}
	for v := 0; v < n; v++ {
		if !d.G.Removed[v] {
			p := d.Labels[v]
			out[p] = append(out[p], int32(v))
		}
	}
	return out
}

// TrimStats reports what distributed trimming removed, plus the measured
// per-partition task durations of each phase (used by the harness to
// project runtimes onto larger worker pools; see metrics.Makespan).
type TrimStats struct {
	TransitiveEdges int
	ContainedNodes  int
	FalseEdges      int
	DeadEndNodes    int // dead ends + bubbles combined
	// PhaseTaskTimes[phase][task]: phase 0 = transitive, 1 = containment,
	// 2 = errors; task = partition index.
	PhaseTaskTimes [3][]time.Duration
}

// Trim runs the three distributed trimming phases in order: transitive
// reduction, containment removal, error removal. After each phase the
// master applies the recorded removals to the hybrid graph before
// shipping the next phase's subgraphs. To call variants, run the phases
// individually and insert CallVariants before TrimErrors (which pops the
// bubbles variant calling reads).
func (d *Driver) Trim() (TrimStats, error) {
	var st TrimStats
	if err := d.TrimTransitive(&st); err != nil {
		return st, err
	}
	if err := d.TrimContainment(&st); err != nil {
		return st, err
	}
	if err := d.TrimErrors(&st); err != nil {
		return st, err
	}
	return st, nil
}

// TrimTransitive runs phase 1: transitive reduction (§V.A).
func (d *Driver) TrimTransitive(st *TrimStats) error {
	if d.skipDone("Transitive") {
		st.TransitiveEdges = d.statsMirror.TransitiveEdges
		return nil
	}
	results, taskTimes, err := d.runPhase("Transitive", VariantConfig{})
	st.PhaseTaskTimes[0] = taskTimes
	if err != nil {
		return fmt.Errorf("assembly: transitive phase: %w", err)
	}
	seen := map[EdgePair]bool{}
	for _, r := range results {
		for _, e := range r.Edges {
			if !seen[e] { // cross-partition edges are reported twice
				seen[e] = true
				d.removeEdge(e)
				st.TransitiveEdges++
			}
		}
	}
	d.statsMirror.TransitiveEdges = st.TransitiveEdges
	return d.notePhase("Transitive")
}

// TrimContainment runs phase 2: containment + false-positive edges (§V.B).
func (d *Driver) TrimContainment(st *TrimStats) error {
	if d.skipDone("Containment") {
		st.ContainedNodes = d.statsMirror.ContainedNodes
		st.FalseEdges = d.statsMirror.FalseEdges
		return nil
	}
	results, taskTimes, err := d.runPhase("Containment", VariantConfig{})
	st.PhaseTaskTimes[1] = taskTimes
	if err != nil {
		return fmt.Errorf("assembly: containment phase: %w", err)
	}
	seenEdge := map[EdgePair]bool{}
	for _, r := range results {
		for _, e := range r.Removal.Edges {
			if !seenEdge[e] {
				seenEdge[e] = true
				d.removeEdge(e)
				st.FalseEdges++
			}
		}
		for _, v := range r.Removal.Nodes {
			if !d.G.Removed[v] {
				d.removeNode(v)
				st.ContainedNodes++
			}
		}
	}
	d.statsMirror.ContainedNodes = st.ContainedNodes
	d.statsMirror.FalseEdges = st.FalseEdges
	return d.notePhase("Containment")
}

// TrimErrors runs phase 3: dead ends and bubbles (§V.C).
func (d *Driver) TrimErrors(st *TrimStats) error {
	if d.skipDone("Errors") {
		st.DeadEndNodes = d.statsMirror.DeadEndNodes
		return nil
	}
	results, taskTimes, err := d.runPhase("Errors", VariantConfig{})
	st.PhaseTaskTimes[2] = taskTimes
	if err != nil {
		return fmt.Errorf("assembly: error phase: %w", err)
	}
	for _, r := range results {
		for _, v := range r.Removal.Nodes {
			if !d.G.Removed[v] {
				d.removeNode(v)
				st.DeadEndNodes++
			}
		}
	}
	d.statsMirror.DeadEndNodes = st.DeadEndNodes
	return d.notePhase("Errors")
}

// TraverseTimed extracts partition-local maximal paths on the workers and
// joins them on the master (paper §V.D): sub-path p1 is joined to p2 when
// p1's right endpoint has an out-edge to p2's left endpoint and that
// endpoint has no other in-edges. It also returns the per-partition task
// durations.
func (d *Driver) TraverseTimed() ([][]int32, []time.Duration, error) {
	results, taskTimes, err := d.runPhase("Paths", VariantConfig{})
	if err != nil {
		return nil, taskTimes, fmt.Errorf("assembly: traversal phase: %w", err)
	}
	var paths [][]int32
	for _, r := range results {
		paths = append(paths, r.Paths...)
	}
	return d.joinPaths(paths), taskTimes, nil
}

// joinPaths merges worker sub-paths across partition boundaries. A path
// p2 can be appended to p1 only when p2's left endpoint has exactly one
// in-edge and it comes from p1's right endpoint (paper rule); if one path
// end feeds several eligible continuations, the heaviest overlap wins.
func (d *Driver) joinPaths(paths [][]int32) [][]int32 {
	// Sort for determinism regardless of worker reply order.
	sort.Slice(paths, func(i, j int) bool { return paths[i][0] < paths[j][0] })
	endAt := map[int32]int{} // right endpoint -> path index (paths are node-disjoint)
	for i, p := range paths {
		endAt[p[len(p)-1]] = i
	}
	succ := make([]int, len(paths))
	for i := range succ {
		succ[i] = -1
	}
	claimed := make([]bool, len(paths))
	for j, p := range paths {
		ins := d.G.liveIn(p[0])
		if len(ins) != 1 {
			continue
		}
		i, ok := endAt[ins[0].From]
		if !ok || i == j {
			continue
		}
		e, ok := d.G.OutEdge(ins[0].From, p[0])
		if !ok {
			continue
		}
		if cur := succ[i]; cur != -1 {
			ce, _ := d.G.OutEdge(ins[0].From, paths[cur][0])
			if e.Len < ce.Len || (e.Len == ce.Len && p[0] >= paths[cur][0]) {
				continue
			}
			claimed[cur] = false
		}
		succ[i] = j
		claimed[j] = true
	}
	done := make([]bool, len(paths))
	var out [][]int32
	emit := func(start int) {
		var merged []int32
		for j := start; j != -1 && !done[j]; j = succ[j] {
			done[j] = true
			merged = append(merged, paths[j]...)
		}
		out = append(out, merged)
	}
	for i := range paths {
		if !claimed[i] && !done[i] {
			emit(i)
		}
	}
	for i := range paths { // pure cycles: every member claimed
		if !done[i] {
			emit(i)
		}
	}
	return out
}

// BuildContigs renders each joined path into a contig by splicing
// consecutive contigs at their edge placements.
func (d *Driver) BuildContigs(paths [][]int32) [][]byte {
	var contigs [][]byte
	for _, p := range paths {
		contig := append([]byte(nil), d.G.Contigs[p[0]]...)
		pos := 0 // start of current node's contig in merged coordinates
		for i := 1; i < len(p); i++ {
			e, ok := d.G.OutEdge(p[i-1], p[i])
			if !ok {
				break // defensive: path edge vanished
			}
			pos += int(e.Diag)
			next := d.G.Contigs[p[i]]
			if pos+len(next) <= len(contig) {
				continue // fully covered
			}
			skip := len(contig) - pos
			if skip < 0 {
				skip = 0
			}
			contig = append(contig, next[skip:]...)
		}
		contigs = append(contigs, contig)
	}
	return contigs
}
