package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	focus "focus"
	"focus/internal/checkpoint"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/metrics"
)

// Options configures a Server.
type Options struct {
	// QueueDepth bounds the number of queued (not yet running) jobs; a
	// submit beyond it is rejected with ErrQueueFull (0: 16).
	QueueDepth int
	// MaxRunning bounds concurrently running jobs (0: 4). Negative pauses
	// the scheduler entirely — jobs queue but never launch (tests use
	// this to exercise admission deterministically).
	MaxRunning int
	// MemoryBudgetMB is the total declared-memory budget across running
	// jobs (0: unaccounted). A spec above the whole budget is rejected at
	// admission (ErrQuota); an admitted job waits in the queue while
	// running jobs' estimates would overflow the budget.
	MemoryBudgetMB int
	// Root is the checkpoint root; each job gets Root/<id> as its private
	// namespace, making it independently killable/resumable and letting a
	// restarted server requeue unfinished jobs. Empty disables
	// durability.
	Root string
	// Grace is the default drain grace period (0: 5s).
	Grace time.Duration
	// Template is the per-job pipeline configuration; per-job fields
	// (Context, Deadline, Checkpoint, Metrics) are overwritten per run. A
	// zero template means focus.DefaultConfig().
	Template focus.Config
	// Logf receives server logs (nil: discard).
	Logf func(format string, args ...interface{})
}

// Server is the resident master: it owns one shared worker fleet and
// multiplexes admitted jobs onto per-job views of it.
type Server struct {
	pool *dist.Pool
	opt  Options
	reg  *metrics.Registry

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job // priority-descending, FIFO within a priority
	jobs     map[string]*job
	order    []string // submission order, for stable listings
	running  int
	memInUse int
	assigned []int // per fleet worker: views currently including it
	draining bool
	closed   bool
	nextSeq  int

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup // running jobs
	schedWG    sync.WaitGroup // scheduler goroutine
}

// job is the server-side job record. status (and every other mutable
// field) is guarded by Server.mu.
type job struct {
	id       string
	dir      string // checkpoint namespace ("" = ephemeral)
	status   Status
	cancel   context.CancelCauseFunc // non-nil while running
	result   *focus.AssemblyResult   // retained while the server lives (Done only)
	watchers []chan Status
	done     chan struct{} // closed at terminal; replaced on Resume
}

// NewServer builds a resident master over pool. The server does not own
// the pool: Close drains the jobs but leaves the fleet running (the
// caller that built the fleet closes it). With Options.Root set, job
// records found under it are reloaded: finished jobs reappear as
// terminal history, unfinished ones are requeued and resume from their
// checkpoint namespaces.
func NewServer(pool *dist.Pool, opt Options) (*Server, error) {
	if pool == nil || pool.Size() == 0 {
		return nil, fmt.Errorf("jobs: server needs a non-empty worker pool")
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 16
	}
	if opt.MaxRunning == 0 {
		opt.MaxRunning = 4
	}
	if opt.Grace == 0 {
		opt.Grace = 5 * time.Second
	}
	if opt.Template.Subsets == 0 {
		opt.Template = focus.DefaultConfig()
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...interface{}) {}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		pool:       pool,
		opt:        opt,
		reg:        metrics.NewRegistry(),
		jobs:       map[string]*job{},
		assigned:   make([]int, pool.Size()),
		nextSeq:    1,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	if opt.Root != "" {
		if err := s.reload(); err != nil {
			cancel(nil)
			return nil, err
		}
	}
	s.schedWG.Add(1)
	go s.scheduler()
	return s, nil
}

// reload scans Root for persisted job records: terminal non-resumable
// jobs become history, everything else re-enters the queue (a job that
// was Running when the previous server died resumes from its last
// checkpoint frame).
func (s *Server) reload() error {
	entries, err := os.ReadDir(s.opt.Root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: reload: %w", err)
	}
	var requeue []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.opt.Root, e.Name())
		if !statusExists(dir) {
			continue
		}
		st, err := readStatus(dir)
		if err != nil {
			s.opt.Logf("jobs: reload: skipping %s: %v", dir, err)
			continue
		}
		if st.ID != e.Name() {
			s.opt.Logf("jobs: reload: skipping %s: record names job %q", dir, st.ID)
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(st.ID, "job-%d", &seq); err == nil && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		j := &job{id: st.ID, dir: dir, status: *st, done: make(chan struct{})}
		s.jobs[st.ID] = j
		s.order = append(s.order, st.ID)
		if st.State.Terminal() && !st.Resumable {
			close(j.done)
			continue
		}
		// Interrupted (resumable) or torn mid-run: back to the queue.
		j.status.State = Queued
		j.status.Error = ""
		j.status.Resumable = false
		j.status.Workers = nil
		j.status.StartedAt, j.status.FinishedAt = 0, 0
		requeue = append(requeue, j)
	}
	// Requeue in original submission order, then by priority.
	sort.Slice(requeue, func(a, b int) bool { return requeue[a].id < requeue[b].id })
	for _, j := range requeue {
		s.enqueueLocked(j) // no concurrency yet: constructor context
		s.persistLocked(j)
		s.opt.Logf("jobs: reload: requeued %s (%s)", j.id, j.status.Spec.Name)
	}
	s.gaugesLocked()
	return nil
}

// Metrics returns the server's operational metrics registry (shared with
// every job's assembly driver).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Health snapshots the shared fleet's per-worker health and fault
// counters.
func (s *Server) Health() dist.HealthSnapshot { return s.pool.Health() }

// Submit admits a job. Rejections wrap ErrAdmission: ErrDraining once a
// drain began, ErrQueueFull at QueueDepth, ErrQuota when the spec could
// never be granted (more workers than the fleet, more memory than the
// budget). The returned id is stable across server restarts.
func (s *Server) Submit(spec Spec) (string, error) {
	if strings.TrimSpace(spec.InputPath) == "" {
		return "", fmt.Errorf("jobs: spec: InputPath required")
	}
	if spec.K <= 0 {
		spec.K = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		s.reg.Counter("jobs_rejected_total").Inc()
		return "", ErrDraining
	}
	// Quota violations are static properties of the spec — report them
	// even when the queue happens to be full.
	if spec.MaxWorkers > s.pool.Size() {
		s.reg.Counter("jobs_rejected_total").Inc()
		return "", fmt.Errorf("%w: %d workers requested, fleet has %d", ErrQuota, spec.MaxWorkers, s.pool.Size())
	}
	if s.opt.MemoryBudgetMB > 0 && spec.MemoryMB > s.opt.MemoryBudgetMB {
		s.reg.Counter("jobs_rejected_total").Inc()
		return "", fmt.Errorf("%w: %d MB requested, budget is %d MB", ErrQuota, spec.MemoryMB, s.opt.MemoryBudgetMB)
	}
	if len(s.queue) >= s.opt.QueueDepth {
		s.reg.Counter("jobs_rejected_total").Inc()
		return "", fmt.Errorf("%w (depth %d)", ErrQueueFull, s.opt.QueueDepth)
	}
	id := fmt.Sprintf("job-%06d", s.nextSeq)
	s.nextSeq++
	j := &job{
		id:     id,
		status: Status{ID: id, Spec: spec, State: Queued, SubmittedAt: time.Now().UnixNano()},
		done:   make(chan struct{}),
	}
	if s.opt.Root != "" {
		j.dir = filepath.Join(s.opt.Root, id)
		// Claim the namespace at admission: a collision (stale dir owned
		// by another id) must fail the submit, not corrupt a later resume.
		if err := checkpoint.Claim(j.dir, id); err != nil {
			return "", err
		}
		if err := writeSpec(j.dir, &spec); err != nil {
			return "", err
		}
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.enqueueLocked(j)
	s.reg.Counter("jobs_admitted_total").Inc()
	s.noteLocked(j)
	s.cond.Broadcast()
	return id, nil
}

// enqueueLocked inserts j behind every queued job of priority >= its own
// (priority order, FIFO within a priority).
func (s *Server) enqueueLocked(j *job) {
	pos := len(s.queue)
	for i, q := range s.queue {
		if q.status.Spec.Priority < j.status.Spec.Priority {
			pos = i
			break
		}
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[pos+1:], s.queue[pos:])
	s.queue[pos] = j
}

// scheduler launches the head of the queue whenever a slot and the
// memory budget allow. Head-of-line blocking is the policy: a large job
// at the head holds back smaller lower-priority jobs rather than being
// starved by them.
func (s *Server) scheduler() {
	defer s.schedWG.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return
		}
		j := s.launchableLocked()
		if j == nil {
			s.cond.Wait()
			continue
		}
		s.queue = s.queue[1:]
		s.startLocked(j)
	}
}

// launchableLocked returns the queue head iff it can start now.
func (s *Server) launchableLocked() *job {
	if len(s.queue) == 0 || s.opt.MaxRunning < 0 || s.running >= s.opt.MaxRunning {
		return nil
	}
	j := s.queue[0]
	if s.opt.MemoryBudgetMB > 0 && s.memInUse+j.status.Spec.MemoryMB > s.opt.MemoryBudgetMB {
		return nil
	}
	return j
}

// startLocked transitions j to Running and launches its goroutine.
func (s *Server) startLocked(j *job) {
	s.running++
	s.memInUse += j.status.Spec.MemoryMB
	members := s.chooseWorkersLocked(j.status.Spec.MaxWorkers)
	for _, w := range members {
		s.assigned[w]++
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	j.cancel = cancel
	j.status.State = Running
	j.status.StartedAt = time.Now().UnixNano()
	j.status.Workers = members
	j.status.Attempts++
	s.noteLocked(j)
	s.wg.Add(1)
	go s.runJob(j, ctx, members)
}

// chooseWorkersLocked picks the job's view: up to maxW fleet workers
// (<=0: all), preferring healthy then least-assigned then lowest id.
// Views may overlap — the quota caps a job's parallel width, it is not an
// exclusive reservation — and each worker's assignment count spreads
// concurrent jobs across the fleet.
func (s *Server) chooseWorkersLocked(maxW int) []int {
	fleet := s.pool.Size()
	n := maxW
	if n <= 0 || n > fleet {
		n = fleet
	}
	ids := make([]int, fleet)
	for i := range ids {
		ids[i] = i
	}
	healthy := make([]bool, fleet)
	for _, w := range s.pool.HealthyIDs() {
		healthy[w] = true
	}
	sort.SliceStable(ids, func(a, b int) bool {
		ia, ib := ids[a], ids[b]
		if healthy[ia] != healthy[ib] {
			return healthy[ia]
		}
		if s.assigned[ia] != s.assigned[ib] {
			return s.assigned[ia] < s.assigned[ib]
		}
		return ia < ib
	})
	members := append([]int(nil), ids[:n]...)
	sort.Ints(members)
	return members
}

// runJob executes one job attempt and finalizes it.
func (s *Server) runJob(j *job, ctx context.Context, members []int) {
	defer s.wg.Done()
	res, err := s.execute(j, ctx, members)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.cancel != nil {
		j.cancel(nil)
		j.cancel = nil
	}
	s.running--
	s.memInUse -= j.status.Spec.MemoryMB
	for _, w := range members {
		s.assigned[w]--
	}
	if j.status.StartedAt > 0 {
		s.reg.Histogram("jobs_duration_seconds").Observe(time.Duration(time.Now().UnixNano() - j.status.StartedAt))
	}
	s.finishLocked(j, res, err)
	s.cond.Broadcast()
}

// execute runs the assembly pipeline for one attempt on the job's worker
// view. Not called with s.mu held.
func (s *Server) execute(j *job, ctx context.Context, members []int) (*focus.AssemblyResult, error) {
	view, err := s.pool.View(members)
	if err != nil {
		return nil, err
	}
	defer view.Close() // releases the view's reconnect-hook slot
	s.mu.Lock()
	spec := j.status.Spec
	dir, id := j.dir, j.id
	s.mu.Unlock()
	reads, err := dna.ReadsFromFile(spec.InputPath)
	if err != nil {
		return nil, fmt.Errorf("jobs: %s: %w", id, err)
	}
	cfg := s.opt.Template
	cfg.Context = ctx
	cfg.Deadline = spec.Deadline
	cfg.Metrics = s.reg
	if dir != "" {
		cfg.Checkpoint = focus.Checkpoint{Dir: dir, Job: id, Every: 1, Resume: true}
	}
	res, _, err := focus.AssembleOnPool(reads, cfg, spec.K, view)
	return res, err
}

// finishLocked maps an attempt outcome onto the terminal state machine:
// nil → Done; a cancellation outcome (kill, drain, deadline) → Killed,
// resumable when a durable namespace exists; anything else → Failed.
func (s *Server) finishLocked(j *job, res *focus.AssemblyResult, err error) {
	j.status.FinishedAt = time.Now().UnixNano()
	switch {
	case err == nil:
		j.status.State = Done
		j.status.Error = ""
		j.status.Resumable = false
		j.result = res
		j.status.Contigs = res.Stats.NumContigs
		j.status.N50 = res.Stats.N50
		s.reg.Counter("jobs_done_total").Inc()
	case errors.Is(err, ErrKilled) || errors.Is(err, ErrDrained) || focus.IsInterrupted(err):
		j.status.State = Killed
		j.status.Error = err.Error()
		j.status.Resumable = j.dir != ""
		s.reg.Counter("jobs_killed_total").Inc()
	default:
		j.status.State = Failed
		j.status.Error = err.Error()
		j.status.Resumable = false
		s.reg.Counter("jobs_failed_total").Inc()
	}
	s.noteLocked(j)
}

// noteLocked publishes a status change: gauges, durable record, watcher
// channels; at a terminal state watchers are closed and Wait unblocks.
func (s *Server) noteLocked(j *job) {
	s.gaugesLocked()
	s.persistLocked(j)
	st := j.status
	st.Workers = append([]int(nil), st.Workers...)
	for _, ch := range j.watchers {
		select {
		case ch <- st:
		default: // slow watcher: it re-reads Status on the next event
		}
	}
	if st.State.Terminal() {
		for _, ch := range j.watchers {
			close(ch)
		}
		j.watchers = nil
		close(j.done)
	}
}

// persistLocked rewrites the job's durable status record.
func (s *Server) persistLocked(j *job) {
	if j.dir == "" {
		return
	}
	if err := writeStatus(j.dir, &j.status); err != nil {
		s.opt.Logf("jobs: %s: persisting status: %v", j.id, err)
	}
}

// gaugesLocked recomputes the per-state job gauges and queue depth.
func (s *Server) gaugesLocked() {
	var byState [5]int64
	for _, j := range s.jobs {
		byState[j.status.State]++
	}
	s.reg.Gauge("jobs_queued").Set(byState[Queued])
	s.reg.Gauge("jobs_running").Set(byState[Running])
	s.reg.Gauge("jobs_done").Set(byState[Done])
	s.reg.Gauge("jobs_failed").Set(byState[Failed])
	s.reg.Gauge("jobs_killed").Set(byState[Killed])
	s.reg.Gauge("queue_depth").Set(int64(len(s.queue)))
	s.reg.Gauge("jobs_memory_mb").Set(int64(s.memInUse))
}

// Status returns a job's current status snapshot.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	st := j.status
	st.Workers = append([]int(nil), st.Workers...)
	return st, nil
}

// List returns every known job's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		st := s.jobs[id].status
		st.Workers = append([]int(nil), st.Workers...)
		out = append(out, st)
	}
	return out
}

// Wait blocks until the job reaches a terminal state and returns its
// terminal error text as an error (nil on Done). A job re-entering the
// queue via Resume arms a fresh wait for the new attempt.
func (s *Server) Wait(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	done := j.done
	s.mu.Unlock()
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.status.Error != "" {
		return errors.New(j.status.Error)
	}
	return nil
}

// Result returns a Done job's contigs. Results live in server memory
// only: after a restart the job is terminal history and the result is
// gone (re-run or Resume to recompute).
func (s *Server) Result(id string) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.status.State != Done {
		return nil, fmt.Errorf("jobs: %s is %s, not done", id, j.status.State)
	}
	if j.result == nil {
		return nil, fmt.Errorf("jobs: %s: result not retained across server restart", id)
	}
	return j.result.Contigs, nil
}

// Watch subscribes to a job's status changes. The channel receives a
// snapshot per transition (best-effort under backpressure) and is closed
// when the job reaches a terminal state; a job already terminal gets a
// closed channel immediately.
func (s *Server) Watch(id string) (<-chan Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	ch := make(chan Status, 16)
	if j.status.State.Terminal() {
		st := j.status
		st.Workers = append([]int(nil), st.Workers...)
		ch <- st
		close(ch)
		return ch, nil
	}
	j.watchers = append(j.watchers, ch)
	return ch, nil
}

// Kill terminates one job without touching any other: a queued job is
// removed and finalized, a running job's context is canceled with
// ErrKilled (the pipeline checkpoints and unwinds; the job finalizes as
// Killed and resumable when durable). Killing a terminal job is
// ErrTerminal.
func (s *Server) Kill(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.status.State {
	case Queued:
		s.dequeueLocked(j)
		j.status.FinishedAt = time.Now().UnixNano()
		j.status.State = Killed
		j.status.Error = ErrKilled.Error()
		j.status.Resumable = j.dir != ""
		s.reg.Counter("jobs_killed_total").Inc()
		s.noteLocked(j)
		s.cond.Broadcast()
		return nil
	case Running:
		if j.cancel != nil {
			j.cancel(ErrKilled)
		}
		return nil
	default:
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.status.State)
	}
}

// dequeueLocked removes j from the pending queue (no-op if absent).
func (s *Server) dequeueLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Resume re-enqueues a resumable terminal job: the next attempt restarts
// from the job's last checkpoint frame and completes with output
// identical to an uninterrupted run. Normal admission (draining, queue
// depth) applies.
func (s *Server) Resume(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.status.State.Terminal() || !j.status.Resumable {
		return fmt.Errorf("%w: %s is %s", ErrNotResumable, id, j.status.State)
	}
	if s.draining || s.closed {
		s.reg.Counter("jobs_rejected_total").Inc()
		return ErrDraining
	}
	if len(s.queue) >= s.opt.QueueDepth {
		s.reg.Counter("jobs_rejected_total").Inc()
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, s.opt.QueueDepth)
	}
	j.status.State = Queued
	j.status.Error = ""
	j.status.Resumable = false
	j.status.Workers = nil
	j.status.StartedAt, j.status.FinishedAt = 0, 0
	j.done = make(chan struct{})
	j.result = nil
	s.enqueueLocked(j)
	s.reg.Counter("jobs_resumed_total").Inc()
	s.noteLocked(j)
	s.cond.Broadcast()
	return nil
}

// Drain stops admission and winds down: queued jobs are finalized
// immediately (Killed with cause ErrDrained, resumable when durable),
// running jobs get up to grace to finish on their own, and leftovers are
// canceled with ErrDrained — which checkpoints them at their last phase
// boundary, so a successor server requeues and resumes them. The server
// stays queryable after the drain.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.reg.Gauge("server_draining").Set(1)
	for _, j := range append([]*job(nil), s.queue...) {
		s.dequeueLocked(j)
		j.status.FinishedAt = time.Now().UnixNano()
		j.status.State = Killed
		j.status.Error = ErrDrained.Error()
		j.status.Resumable = j.dir != ""
		s.reg.Counter("jobs_killed_total").Inc()
		s.noteLocked(j)
	}
	deadline := time.Now().Add(grace)
	var timer *time.Timer
	if grace > 0 {
		timer = time.AfterFunc(grace, s.cond.Broadcast)
	}
	for s.running > 0 && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	if timer != nil {
		timer.Stop()
	}
	for _, j := range s.jobs {
		if j.status.State == Running && j.cancel != nil {
			j.cancel(ErrDrained)
		}
	}
	for s.running > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close drains with no grace and stops the server. The worker fleet is
// left running — the caller owns it.
func (s *Server) Close() error {
	s.Drain(0)
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.schedWG.Wait()
	s.wg.Wait()
	s.baseCancel(nil)
	return nil
}

// Draining reports whether a drain has begun (admission rejects with
// ErrDraining).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
