package assembly

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
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
	Pool   *dist.Pool // the workers the run may use
	G      *DiGraph
	Labels []int32 // partition of each hybrid node
	K      int
	Cfg    Config

	// sess holds the run's own connections to Pool's members (nil until
	// the first pooled phase). Every Load and Phase goes over them, and
	// the workers keep the run's partitions exactly as long as they last.
	sess *dist.Session
	// localOnly: phases run on the master, because the driver has no pool
	// or because the pool became unusable mid-run (sticky).
	localOnly    bool
	pendingNodes []int32
	pendingEdges []EdgePair

	// Stateful placement state (DESIGN.md §11), nil until the first
	// pooled phase. placement[t] is the worker currently hosting partition
	// t (-1 = homeless: Loaded at the next round of a phase). It is set
	// only after a Load of t succeeded on that worker's current
	// connection, so the copy it names is the one a Phase finds there, or
	// the worker answers "not loaded".
	placement []int
	// stored[t] lists the node ids of partition t's subgraph as last
	// Loaded (nil = never Loaded): the only removals its worker can act on
	// (phaseDeltas).
	stored [][]int32

	// Checkpoint/resume state (ckpt.go). ckptDir receives a frame per
	// phase boundary ("" = off), each stamped with ckptFingerprint;
	// donePhases lists completed graph-mutating phases;
	// statsMirror mirrors the caller-owned trim counters so checkpoints
	// are self-contained; resumeDone marks phases to skip after
	// ResumeDriver.
	ckptDir         string
	ckptFingerprint uint64
	donePhases      []string
	resumeDone      map[string]bool
	statsMirror     TrimStats

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

// SetMetrics attaches an operational-metrics registry: re-host, lost-
// partition and degradation counters plus per-phase latency histograms
// land in it. Nil (the default) disables instrumentation. Call before the
// first phase.
func (d *Driver) SetMetrics(reg *metrics.Registry) { d.reg = reg }

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

// maxRounds bounds a phase's round loop: each round either makes
// progress or fails a worker (evicted after the pool's MaxFailures), so a
// bound proportional to the pool size is enough for any reachable schedule.
func (d *Driver) maxRounds() int { return 2*d.Pool.Size() + 3 }

// loadHomeless Loads every homeless partition in parts onto the
// least-loaded healthy worker, one attempt each. The subgraph is built from
// the master's authoritative graph, which already reflects every applied
// removal, so it equals the lost copy plus any outstanding delta. A
// reconnected worker is empty, so it is the least loaded and takes the
// lost partitions. Placement and stored node ids are committed per
// partition on Load success; a partition whose Load failed stays homeless
// for the next round. It returns an error only for a Load failure no
// other worker can fix (a service error) or when no worker is healthy.
func (d *Driver) loadHomeless(ctx context.Context, parts []int) error {
	var homeless []int
	for _, p := range parts {
		if w := d.placement[p]; w < 0 || !d.sess.Healthy(w) {
			d.placement[p] = -1
			homeless = append(homeless, p)
		}
	}
	if len(homeless) == 0 {
		return nil
	}
	healthy := d.sess.HealthyIDs()
	if len(healthy) == 0 {
		return fmt.Errorf("assembly: loading %d partition(s): %w", len(homeless), dist.ErrNoWorkers)
	}
	load := make(map[int]int, len(healthy))
	for _, w := range healthy {
		load[w] = 0
	}
	for _, w := range d.placement {
		if _, ok := load[w]; ok {
			load[w]++
		}
	}
	target := make([]int, len(homeless))
	for i := range homeless {
		best := healthy[0]
		for _, w := range healthy[1:] {
			if load[w] < load[best] {
				best = w
			}
		}
		target[i] = best
		load[best]++
	}
	// Fresh extraction per round: the subgraphs (including the Local views
	// of partitionNodes) ship inside RPC args, and an abandoned Load's
	// encoder may outlive this call, so none of this memory is recycled.
	allParts := d.partitionNodes()
	x := d.extractor()
	sc := x.get()
	subs := make([]Subgraph, len(homeless))
	for i, p := range homeless {
		subs[i] = x.subgraph(sc, int32(p), allParts[p])
	}
	x.put(sc)
	replies := make([]interface{}, len(homeless))
	for i := range replies {
		replies[i] = new(dist.Ack)
	}
	_, errs := d.sess.ParallelCallsPlacedCtx(ctx, len(homeless), func(t int) int { return target[t] }, "Load",
		func(t int) interface{} {
			return &LoadArgs{Sub: subs[t]}
		}, replies)
	var fatal error
	for i, err := range errs {
		p := homeless[i]
		switch {
		case err == nil:
			if d.stored[p] != nil {
				d.reg.Counter("assembly_rehost_total").Inc()
				log.Printf("assembly: partition %d re-hosted onto worker %d", p, target[i])
			}
			d.placement[p] = target[i]
			d.stored[p] = nodeIDs(subs[i].Nodes)
		case fatal != nil || ctxErr(ctx) != nil:
			// One service error is enough; the caller reports a cancel.
		case dist.IsTransportError(err):
			if d.stored[p] != nil { // a re-host, not the partition's first Load
				d.reg.Counter("assembly_rehost_failed_total").Inc()
			}
			log.Printf("assembly: loading partition %d onto worker %d failed (%v); retrying next round", p, target[i], err)
		default:
			fatal = fmt.Errorf("assembly: loading partition %d onto worker %d: %w", p, target[i], err)
		}
	}
	return fatal
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

// Close releases the run's worker-side state: it closes the run's own
// connections, and with them every partition its workers store, whether
// or not their Loads answered. It sends no RPC.
func (d *Driver) Close() error {
	if d.sess == nil {
		return nil
	}
	err := d.sess.Close()
	d.sess, d.placement, d.stored = nil, nil, nil
	return err
}

// runPhase executes one named phase over all partitions and returns
// per-partition replies plus task times. When the pool becomes unusable
// (every worker lost, or re-hosting cannot converge) the phase degrades to
// local execution on the master with a logged warning instead of failing
// the run.
func (d *Driver) runPhase(phase string) ([]PhaseReply, []time.Duration, error) {
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
		res, lerr := d.runPhaseLocal(d.runCtx, phase)
		return res, nil, lerr
	}
	return d.runPhaseStateful(d.runCtx, phase)
}

// checkReply rejects a worker's reply the master cannot apply: node or
// edge ids outside [0, NumNodes) and empty paths. Every reply of a phase
// is checked before any is applied, so a bad one leaves the graph
// untouched.
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
	if bad == "" {
		return nil
	}
	return fmt.Errorf("assembly: %s phase: worker %d answered partition %d with %s", phase, worker, part, bad)
}

// runPhaseStateful drives one phase of the delta protocol in rounds. Each
// round Loads every homeless partition (loadHomeless), runs the phase on
// every partition that has a home, and marks those whose worker was lost
// or answered that it does not hold them homeless for the next round. A
// new driver starts with every partition homeless, so the first round of
// the first phase is the initial load. The run degrades to local
// execution only when no worker is healthy or the rounds run out. The
// master's graph does not mutate during a phase (removals are applied by
// the Trim* callers afterwards), so a re-hosted copy equals the stored
// copy plus this phase's delta, and its delta re-applied to it is an
// idempotent no-op: every partition computes on identical graph state no
// matter how many times it was re-hosted, keeping output byte-identical
// to a fault-free run.
func (d *Driver) runPhaseStateful(ctx context.Context, phase string) ([]PhaseReply, []time.Duration, error) {
	if d.placement == nil {
		d.sess = d.Pool.Session()
		d.placement = make([]int, d.K)
		d.stored = make([][]int32, d.K)
		for t := range d.placement {
			d.placement[t] = -1
		}
	}
	deltas := d.phaseDeltas()
	results := make([]PhaseReply, d.K)
	times := make([]time.Duration, d.K)
	pending := make([]int, d.K)
	for t := range pending {
		pending[t] = t
	}
	var err error
	for round := 0; len(pending) > 0; round++ {
		if round >= d.maxRounds() {
			err = fmt.Errorf("assembly: %s phase: partition(s) %v still failing after %d rounds", phase, pending, round)
			break
		}
		if err = d.loadHomeless(ctx, pending); err != nil {
			break
		}
		if cerr := ctxErr(ctx); cerr != nil {
			return nil, times, cerr
		}
		var batch, next []int
		for _, p := range pending {
			if d.placement[p] < 0 {
				next = append(next, p)
			} else {
				batch = append(batch, p)
			}
		}
		replies := make([]interface{}, len(batch))
		for i := range replies {
			replies[i] = &PhaseReply{}
		}
		// place/mkArgs read the placement table from the scheduler's
		// goroutines; the driver does not mutate it while the call is in
		// flight.
		ptimes, errs := d.sess.ParallelCallsPlacedCtx(ctx, len(batch), func(t int) int { return d.placement[batch[t]] }, "Phase",
			func(t int) interface{} {
				p := batch[t]
				return &PhaseArgs{Part: int32(p), Phase: phase, Delta: deltas[p], Cfg: d.Cfg}
			}, replies)
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
	if err == nil {
		return results, times, nil
	}
	if cerr := ctxErr(ctx); cerr != nil {
		return nil, times, cerr
	}
	if !d.fallBackStateful(phase, err) {
		return nil, times, err
	}
	res, lerr := d.runPhaseLocal(ctx, phase)
	return res, times, lerr
}

// fallBackStateful decides whether a failed stateful phase should degrade
// to local execution, and if so makes the degradation sticky: worker-side
// partitions have missed this phase's delta, so the distributed state is
// stale for the rest of the run. Application-level errors (a service bug,
// an unknown phase) still propagate.
func (d *Driver) fallBackStateful(phase string, err error) bool {
	if !dist.IsTransportError(err) && d.sess.NumHealthy() > 0 {
		return false
	}
	d.localOnly = true
	d.reg.Counter("assembly_degraded_total").Inc()
	d.pendingNodes, d.pendingEdges = nil, nil
	// The cause names the partition or worker that triggered the
	// degradation (loadHomeless and the round loop build it that way).
	log.Printf("assembly: %s phase: pool unusable, %d/%d workers healthy; cause: %v; falling back to local execution for the rest of the run",
		phase, d.sess.NumHealthy(), d.Pool.Size(), err)
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
func (d *Driver) runPhaseLocal(ctx context.Context, phase string) ([]PhaseReply, error) {
	gate := par.GateFor(ctx)
	subs := d.subgraphsCtx(ctx, d.partitionNodes())
	results := make([]PhaseReply, d.K)
	errs := make([]error, d.K)
	par.Run(par.Limit(d.extractWorkers), d.K, func(_, t int) {
		if !gate.Stopped() {
			results[t], errs[t] = scanPhase(phase, &subs[t], d.Cfg)
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
// means local execution by choice: every phase runs on the master.
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
	return &Driver{Pool: pool, G: g, Labels: labels, K: k, Cfg: cfg, localOnly: pool == nil}, nil
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
// shipping the next phase's subgraphs.
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
	results, taskTimes, err := d.runPhase("Transitive")
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
	results, taskTimes, err := d.runPhase("Containment")
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
	results, taskTimes, err := d.runPhase("Errors")
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
	results, taskTimes, err := d.runPhase("Paths")
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
