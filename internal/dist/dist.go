// Package dist is the distribution substrate standing in for MPI (the
// paper ran on an MPI cluster; see DESIGN.md §2 for the substitution
// rationale). It provides a master/worker pool over net/rpc's call
// matching and the framed wire codec of codec.go, with two transports:
// in-process workers connected by net.Pipe (same handshake and frames, no
// sockets) and TCP workers for multi-process runs
// (cmd/focus-worker). The distributed assembly algorithms of paper §V run
// their per-partition work on these workers.
//
// Unlike an MPI job — which aborts when any rank dies — the pool is fault
// tolerant: calls carry an optional deadline (Options.CallTimeout), a
// worker whose connection hangs or breaks is evicted from the schedulable
// set and reconnected in the background with exponential backoff, and the
// dynamic scheduler of sched.go reroutes queued tasks around evicted
// workers. chaos.go provides a deterministic fault-injecting transport for
// testing all of this below the service layer.
package dist

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

// ServiceName is the RPC service name workers register.
const ServiceName = "FocusWorker"

// dialTimeout bounds a single (re)connect dial.
const dialTimeout = 2 * time.Second

var (
	// ErrCallTimeout marks a call that exceeded Options.CallTimeout. The
	// worker's connection is severed when this happens (the reply of an
	// abandoned call must never be written concurrently with a retry).
	ErrCallTimeout = errors.New("dist: call timeout")
	// ErrWorkerDown marks a call addressed to a worker with no live
	// connection (evicted, reconnecting, or closed).
	ErrWorkerDown = errors.New("dist: worker down")
	// ErrNoWorkers marks a parallel invocation that found (or was left
	// with) no schedulable workers. Callers use it to fall back to local
	// execution.
	ErrNoWorkers = errors.New("dist: no healthy workers")
	// ErrKicked marks a call severed because a supervisor (the assembly
	// watchdog) forcibly disconnected the worker mid-call via Pool.Kick.
	ErrKicked = errors.New("dist: worker kicked")
)

// Options configure the pool's fault tolerance. The zero value disables
// deadlines and uses the default health thresholds.
type Options struct {
	// CallTimeout is the per-call deadline; 0 disables deadlines
	// (net/rpc's native behaviour: a hung worker blocks forever).
	CallTimeout time.Duration
	// MaxFailures is the number of consecutive transport failures
	// (timeouts, broken connections) after which a worker is permanently
	// evicted instead of reconnected. Successful calls reset the count;
	// application-level errors returned by the service do not touch it.
	MaxFailures int
	// ReconnectMin/ReconnectMax bound the exponential reconnect backoff.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// MaxReconnects is the number of failed reconnect attempts per outage
	// before the worker is permanently evicted.
	MaxReconnects int
	// Seed seeds the backoff jitter PRNG (deterministic tests).
	Seed int64
	// Logf receives eviction/reconnect warnings; nil means log.Printf.
	Logf func(format string, args ...interface{})

	// WrapConn, if set, wraps the server side of every in-process worker
	// connection (keyed by worker id). Benchmarks use it to count the
	// bytes the codec actually puts on the wire. It composes with the chaos
	// transport: WrapConn is applied first, chaos outermost.
	WrapConn func(worker int, conn net.Conn) net.Conn
}

// DefaultOptions returns the default fault-tolerance parameters. Deadlines
// are off by default: legitimate partition tasks have no a-priori bound,
// so hanging-worker detection is opt-in (cmd/focus exposes -call-timeout).
func DefaultOptions() Options { return Options{} }

func (o Options) withDefaults() Options {
	if o.MaxFailures <= 0 {
		o.MaxFailures = 3
	}
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 5 * time.Second
	}
	if o.MaxReconnects <= 0 {
		o.MaxReconnects = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// handshakeTimeout bounds the wire handshake of a (re)connect:
// CallTimeout when that is set and shorter than the dial timeout, else
// the dial timeout.
func (o Options) handshakeTimeout() time.Duration {
	if o.CallTimeout > 0 && o.CallTimeout < dialTimeout {
		return o.CallTimeout
	}
	return dialTimeout
}

// worker is one pool slot: its connection plus health state. The slot
// survives connection loss — the client is replaced by the reconnect loop.
type worker struct {
	id         int
	addr       string                  // TCP address; "" for in-process workers
	newService func() interface{}      // in-process service factory (revival)
	wrap       func(net.Conn) net.Conn // optional chaos wrapper for the server conn

	mu      sync.Mutex
	client  *rpc.Client
	fails   int  // consecutive transport failures
	evicted bool // permanently out of the schedulable set

	// In-flight call tracking for the watchdog's stuck-worker detection:
	// callStart holds the UnixNano start time of the oldest in-flight call
	// (0 when idle). The pool's one-in-flight-per-worker scheduling makes
	// the single timestamp exact for phase traffic.
	inflight  atomic.Int32
	callStart atomic.Int64
}

// Pool is a set of workers addressed by index. Worker slots are fixed at
// construction; health state decides which are schedulable at any moment.
// A Pool handle is either a root (owns the fleet and its lifecycle) or a
// view created by View: a restricted handle that shares the fleet's
// workers, reconnect machinery and health state but schedules only onto
// its member subset and keeps its own completion counter. Worker ids are
// always root-global, in views too.
type Pool struct {
	opt     Options
	workers []*worker

	// View state: root points at the owning pool (nil on the root
	// itself); mask[id] marks this handle's member workers (nil = all).
	root *Pool
	mask []bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// Reconnect-hook registry (root-held, guarded by hookMu): every
	// registered hook runs when a severed worker is reinstated. slotHook
	// is the per-handle single-slot SetReconnectHook compatibility wrapper
	// over the registry, so each view carries one independent slot.
	hookMu   sync.Mutex
	hooks    map[int]func(worker int)
	nextHook int
	slotHook int
	slotSet  bool

	// completions counts finished worker calls (any outcome). Watchdogs
	// read it as the pool's progress signal: a stuck phase is one whose
	// counter stops moving. Views keep their own counter (a per-job
	// watchdog must not read another job's traffic as progress); the root
	// counter aggregates the whole fleet.
	completions atomic.Int64

	// Fleet-wide fault counters (root-held), surfaced by Health().
	evictions  atomic.Int64
	reconnects atomic.Int64
	kicks      atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	// spawnMu orders reconnect-loop spawns against Close: record must not
	// wg.Add after Close's wg.Wait has begun (a WaitGroup reuse race).
	// Holding it while closing `closed` gives record an atomic
	// check-then-Add window.
	spawnMu sync.Mutex
	wg      sync.WaitGroup // reconnect loops
}

func newPool(opt Options) *Pool {
	opt = opt.withDefaults()
	return &Pool{
		opt:    opt,
		rng:    rand.New(rand.NewSource(opt.Seed)),
		hooks:  make(map[int]func(int)),
		closed: make(chan struct{}),
	}
}

// shared returns the root pool that owns the fleet's shared state
// (reconnect loops, hook registry, counters, lifecycle); for a root pool
// that is the pool itself.
func (p *Pool) shared() *Pool {
	if p.root != nil {
		return p.root
	}
	return p
}

// allowed reports whether worker id is a member of this handle.
func (p *Pool) allowed(id int) bool {
	return p.mask == nil || (id >= 0 && id < len(p.mask) && p.mask[id])
}

// NewLocalPool starts n in-process workers, each hosting its own service
// instance created by newService, connected through net.Pipe. RPC
// round-trips go through the same handshake and wire frames a TCP
// deployment uses.
func NewLocalPool(n int, newService func() interface{}) (*Pool, error) {
	return NewLocalPoolOpts(n, newService, DefaultOptions())
}

// NewLocalPoolOpts is NewLocalPool with explicit fault-tolerance options.
func NewLocalPoolOpts(n int, newService func() interface{}, opt Options) (*Pool, error) {
	return NewLocalChaosPool(n, newService, opt, nil)
}

// NewLocalChaosPool is NewLocalPoolOpts with a deterministic
// fault-injecting transport: chaos(i) returns the chaos configuration of
// worker i's server-side connection (nil = clean). Passing chaos == nil
// yields a plain local pool.
func NewLocalChaosPool(n int, newService func() interface{}, opt Options, chaos func(worker int) *ChaosConfig) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: pool size %d", n)
	}
	p := newPool(opt)
	for i := 0; i < n; i++ {
		w := &worker{id: i, newService: newService}
		if chaos != nil {
			if cfg := chaos(i); cfg != nil {
				c := *cfg
				w.wrap = func(conn net.Conn) net.Conn { return WrapChaos(conn, c) }
			}
		}
		client, err := p.connectWorker(w)
		if err != nil {
			p.Close()
			return nil, err
		}
		w.client = client
		p.workers = append(p.workers, w)
	}
	return p, nil
}

// dialConn opens a raw transport to w: TCP for remote workers, a pipe to
// a freshly served in-process service instance otherwise. The in-process
// server runs the same handshake a TCP focus-worker does.
func (p *Pool) dialConn(w *worker) (net.Conn, error) {
	if w.addr != "" {
		return net.DialTimeout("tcp", w.addr, dialTimeout)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, w.newService()); err != nil {
		return nil, fmt.Errorf("dist: register: %w", err)
	}
	cliConn, srvConn := net.Pipe()
	var sc net.Conn = srvConn
	if p.opt.WrapConn != nil {
		sc = p.opt.WrapConn(w.id, sc)
	}
	if w.wrap != nil {
		sc = w.wrap(sc)
	}
	go serveConn(srv, sc, p.opt.handshakeTimeout(), nil)
	return cliConn, nil
}

// connectWorker dials w and completes the wire handshake.
func (p *Pool) connectWorker(w *worker) (*rpc.Client, error) {
	conn, err := p.dialConn(w)
	if err != nil {
		return nil, err
	}
	cc, err := newWireClientCodec(conn, p.opt.handshakeTimeout())
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: worker %d: %w", w.id, err)
	}
	return rpc.NewClientWithCodec(cc), nil
}

// DialPool connects to already-running TCP workers.
func DialPool(addrs []string) (*Pool, error) {
	return DialPoolOpts(addrs, DefaultOptions())
}

// DialPoolOpts is DialPool with explicit fault-tolerance options.
func DialPoolOpts(addrs []string, opt Options) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	p := newPool(opt)
	for i, addr := range addrs {
		w := &worker{id: i, addr: addr}
		client, err := p.connectWorker(w)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
		}
		w.client = client
		p.workers = append(p.workers, w)
	}
	return p, nil
}

// Size returns the number of worker slots (healthy or not).
func (p *Pool) Size() int { return len(p.workers) }

// NumHealthy returns the number of currently schedulable workers: slots
// with a live connection that have not been evicted.
func (p *Pool) NumHealthy() int {
	n := 0
	for _, w := range p.workers {
		if p.workerRunnable(w) {
			n++
		}
	}
	return n
}

// Healthy reports whether worker i is currently schedulable (live
// connection, not evicted). Out-of-range ids are unhealthy.
func (p *Pool) Healthy(i int) bool {
	if i < 0 || i >= len(p.workers) {
		return false
	}
	return p.workerRunnable(p.workers[i])
}

// HealthyIDs returns the ids of the currently schedulable workers in
// ascending order. The snapshot is advisory — a worker may die between the
// call and its use — but stateful placement only needs a best-effort view:
// a placement on a worker that just died fails its call and is re-placed.
func (p *Pool) HealthyIDs() []int {
	var ids []int
	for _, w := range p.workers {
		if p.workerRunnable(w) {
			ids = append(ids, w.id)
		}
	}
	return ids
}

// SetReconnectHook registers fn to be called (from the reconnect
// goroutine) each time a severed worker is reinstated. Stateful callers
// use it to schedule rebalancing onto the recovered worker. Pass nil to
// clear. The hook must not block: it runs on the reconnect loop's
// goroutine and a slow hook delays the worker's return to service.
//
// The slot is per handle: each View carries its own, so concurrent
// drivers on views of one fleet do not clobber each other. AddReconnectHook
// is the multi-listener registry underneath.
func (p *Pool) SetReconnectHook(fn func(worker int)) {
	s := p.shared()
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	if p.slotSet {
		delete(s.hooks, p.slotHook)
		p.slotSet = false
	}
	if fn != nil {
		p.slotHook = s.addHookLocked(fn)
		p.slotSet = true
	}
}

// AddReconnectHook registers fn alongside any other reconnect hooks and
// returns a registration id for RemoveReconnectHook. Hooks run
// sequentially on the reconnect goroutine and must not block.
func (p *Pool) AddReconnectHook(fn func(worker int)) int {
	s := p.shared()
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.addHookLocked(fn)
}

// RemoveReconnectHook deregisters a hook by its AddReconnectHook id.
func (p *Pool) RemoveReconnectHook(id int) {
	s := p.shared()
	s.hookMu.Lock()
	delete(s.hooks, id)
	s.hookMu.Unlock()
}

func (p *Pool) addHookLocked(fn func(worker int)) int {
	p.nextHook++
	p.hooks[p.nextHook] = fn
	return p.nextHook
}

// runReconnectHooks snapshots and invokes every registered hook (called
// from the reconnect loop on the root pool).
func (p *Pool) runReconnectHooks(worker int) {
	p.hookMu.Lock()
	fns := make([]func(int), 0, len(p.hooks))
	for _, fn := range p.hooks {
		fns = append(fns, fn)
	}
	p.hookMu.Unlock()
	for _, fn := range fns {
		fn(worker)
	}
}

func (p *Pool) workerRunnable(w *worker) bool {
	if !p.allowed(w.id) {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.client != nil && !w.evicted
}

func (p *Pool) runnableWorkers() []*worker {
	var out []*worker
	for _, w := range p.workers {
		if p.workerRunnable(w) {
			out = append(out, w)
		}
	}
	return out
}

// Call invokes method (without the service prefix) on worker i, honouring
// Options.CallTimeout.
func (p *Pool) Call(i int, method string, args, reply interface{}) error {
	return p.CallCtx(nil, i, method, args, reply)
}

// CallCtx is Call bounded by ctx: cancellation (or a ctx deadline) severs
// the in-flight call exactly like ErrCallTimeout does — the connection is
// closed so the abandoned reply can never be written concurrently with a
// retry — and the returned error wraps the context's cause. A nil ctx
// means no bound beyond Options.CallTimeout.
func (p *Pool) CallCtx(ctx context.Context, i int, method string, args, reply interface{}) error {
	if i < 0 || i >= len(p.workers) {
		return fmt.Errorf("dist: worker %d out of range [0,%d)", i, len(p.workers))
	}
	if !p.allowed(i) {
		return fmt.Errorf("dist: worker %d not a member of this pool view: %w", i, ErrWorkerDown)
	}
	return p.callWorkerCtx(ctx, p.workers[i], method, args, reply)
}

// Completions returns the total number of finished worker calls (any
// outcome, including timeouts and severed calls). Watchdogs use it as the
// pool's progress signal.
func (p *Pool) Completions() int64 { return p.completions.Load() }

// StuckWorkers returns the ids of workers whose current in-flight call
// has been running for at least window. The snapshot is advisory — a call
// can finish between the read and the caller's reaction.
func (p *Pool) StuckWorkers(window time.Duration) []int {
	now := time.Now().UnixNano()
	var ids []int
	for _, w := range p.workers {
		if !p.allowed(w.id) {
			continue
		}
		if start := w.callStart.Load(); start != 0 && now-start >= int64(window) {
			ids = append(ids, w.id)
		}
	}
	return ids
}

// Kick forcibly severs worker i's connection, failing its in-flight call
// like any transport error: the call unblocks with ErrKicked, the task
// reschedules (or is re-hosted by a stateful driver), and the worker goes
// through the usual reconnect/eviction machinery. It is the watchdog's
// evict-and-rehost escalation. Returns false if the worker had no live
// connection to sever.
func (p *Pool) Kick(i int) bool {
	if i < 0 || i >= len(p.workers) || !p.allowed(i) {
		return false
	}
	w := p.workers[i]
	w.mu.Lock()
	c := w.client
	w.mu.Unlock()
	if c == nil {
		return false
	}
	p.shared().kicks.Add(1)
	p.record(w, c, fmt.Errorf("dist: worker %d: %w", i, ErrKicked))
	return true
}

// Go invokes method on worker i asynchronously (no deadline; callers that
// need one should use Call from a goroutine).
func (p *Pool) Go(i int, method string, args, reply interface{}) *rpc.Call {
	w := p.workers[i]
	w.mu.Lock()
	c := w.client
	w.mu.Unlock()
	if c == nil {
		call := &rpc.Call{ServiceMethod: ServiceName + "." + method, Args: args, Reply: reply,
			Error: fmt.Errorf("dist: worker %d: %w", i, ErrWorkerDown), Done: make(chan *rpc.Call, 1)}
		call.Done <- call
		return call
	}
	return c.Go(ServiceName+"."+method, args, reply, nil)
}

// callWorkerCtx runs one call on w with the configured deadline and feeds
// the outcome into the worker's health state. The optional context bounds
// it further: a canceled (or deadline-expired) ctx severs the in-flight
// call exactly like a timeout, because a kept connection could still
// write into the abandoned reply. A nil ctx — or one that can never
// cancel — costs nothing beyond a nil check on the hot path.
func (p *Pool) callWorkerCtx(ctx context.Context, w *worker, method string, args, reply interface{}) error {
	var cdone <-chan struct{}
	if ctx != nil {
		if ctx.Err() != nil {
			// Fail fast without touching the (healthy) connection: no call
			// went out, so there is nothing to sever and no health event.
			return fmt.Errorf("dist: %s on worker %d: %w", method, w.id, context.Cause(ctx))
		}
		cdone = ctx.Done()
	}
	// A body the codec cannot carry is the caller's bug, not the worker's:
	// reject it here, before it can count against the connection's health.
	for _, body := range [2]interface{}{args, reply} {
		if _, ok := body.(Wire); !ok && body != nil {
			return fmt.Errorf("dist: %s on worker %d: %w", method, w.id, notWireError(body))
		}
	}
	w.mu.Lock()
	c := w.client
	w.mu.Unlock()
	if c == nil {
		return fmt.Errorf("dist: worker %d: %w", w.id, ErrWorkerDown)
	}
	svcMethod := ServiceName + "." + method
	p.noteCallStart(w)
	defer p.noteCallEnd(w)
	if p.opt.CallTimeout <= 0 && cdone == nil {
		err := c.Call(svcMethod, args, reply)
		p.record(w, c, err)
		return err
	}
	// client.Go's send runs in the calling goroutine and can itself block
	// on a wedged connection, so the whole round-trip goes in a goroutine.
	done := make(chan error, 1)
	go func() {
		call := c.Go(svcMethod, args, reply, make(chan *rpc.Call, 1))
		done <- (<-call.Done).Error
	}()
	var timeC <-chan time.Time
	if p.opt.CallTimeout > 0 {
		timer := time.NewTimer(p.opt.CallTimeout)
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case err := <-done:
		p.record(w, c, err)
		return err
	case <-timeC:
		err := fmt.Errorf("dist: %s on worker %d after %v: %w", method, w.id, p.opt.CallTimeout, ErrCallTimeout)
		p.record(w, c, err)
		return err
	case <-cdone:
		err := fmt.Errorf("dist: %s on worker %d: %w", method, w.id, context.Cause(ctx))
		p.record(w, c, err)
		return err
	}
}

// noteCallStart/noteCallEnd maintain the per-worker in-flight timestamp
// (stuck detection) and the pool-wide completion counter (progress
// detection).
func (p *Pool) noteCallStart(w *worker) {
	if w.inflight.Add(1) == 1 {
		w.callStart.Store(time.Now().UnixNano())
	}
}

func (p *Pool) noteCallEnd(w *worker) {
	if w.inflight.Add(-1) == 0 {
		w.callStart.Store(0)
	}
	p.completions.Add(1)
	// A view's traffic also counts as fleet progress on the root.
	if s := p.shared(); s != p {
		s.completions.Add(1)
	}
}

// IsTransportError reports whether err indicates the worker (or the
// connection to it) is unusable, as opposed to an application-level error
// returned by the service — a service that answers, even with an error, is
// alive.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	var se rpc.ServerError
	if errors.As(err, &se) {
		return false
	}
	return true
}

// record updates w's health from a call outcome on client c. Transport
// failures sever the connection: net/rpc clients are not reusable after an
// I/O error, and a timed-out call could still write into its abandoned
// reply if the connection were kept.
func (p *Pool) record(w *worker, c *rpc.Client, err error) {
	p = p.shared() // reconnect spawning and lifecycle state live on the root
	w.mu.Lock()
	if w.client != c { // stale generation: outcome of an already-severed conn
		w.mu.Unlock()
		return
	}
	if !IsTransportError(err) {
		w.fails = 0
		w.mu.Unlock()
		return
	}
	w.fails++
	w.client = nil
	canRevive := (w.addr != "" || w.newService != nil) && !p.isClosed()
	dead := w.fails >= p.opt.MaxFailures || !canRevive
	if dead {
		w.evicted = true
	}
	fails := w.fails
	w.mu.Unlock()
	c.Close()
	if dead {
		p.evictions.Add(1)
		p.opt.Logf("dist: worker %d evicted after %d consecutive transport failure(s) (last: %v)", w.id, fails, err)
		return
	}
	p.opt.Logf("dist: worker %d connection severed (%v); reconnecting in background", w.id, err)
	// spawnMu orders this spawn against Close: Close holds it while closing
	// p.closed and only then waits on p.wg, so either we observe the pool
	// closed here (no spawn), or our wg.Add lands before Close's wg.Wait.
	p.spawnMu.Lock()
	if p.isClosed() {
		p.spawnMu.Unlock()
		return
	}
	p.wg.Add(1)
	p.spawnMu.Unlock()
	go p.reconnectLoop(w)
}

// reconnectLoop re-establishes w's connection with exponential backoff and
// jitter, verifying liveness with a Ping before reinstating the worker.
// The consecutive-failure count is reset only by successful *work* calls,
// so a worker that reconnects but keeps hanging is eventually evicted for
// good by MaxFailures.
func (p *Pool) reconnectLoop(w *worker) {
	defer p.wg.Done()
	for attempt := 0; attempt < p.opt.MaxReconnects; attempt++ {
		select {
		case <-p.closed:
			return
		case <-time.After(p.backoff(attempt)):
		}
		client, err := p.reconnect(w)
		if err != nil {
			p.opt.Logf("dist: worker %d reconnect attempt %d/%d: %v", w.id, attempt+1, p.opt.MaxReconnects, err)
			continue
		}
		w.mu.Lock()
		if w.evicted || p.isClosed() {
			w.mu.Unlock()
			client.Close()
			return
		}
		w.client = client
		w.mu.Unlock()
		p.reconnects.Add(1)
		p.opt.Logf("dist: worker %d reconnected", w.id)
		p.runReconnectHooks(w.id)
		return
	}
	w.mu.Lock()
	w.evicted = true
	w.mu.Unlock()
	p.evictions.Add(1)
	p.opt.Logf("dist: worker %d evicted after %d failed reconnect attempts", w.id, p.opt.MaxReconnects)
}

func (p *Pool) reconnect(w *worker) (*rpc.Client, error) {
	client, err := p.connectWorker(w)
	if err != nil {
		return nil, err
	}
	timeout := p.opt.CallTimeout
	if timeout <= 0 {
		timeout = dialTimeout
	}
	if err := ping(client, timeout); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// ping verifies a connection answers within timeout. A service without a
// Ping method still proves liveness by answering with a ServerError.
func ping(c *rpc.Client, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() {
		var args, ok Ack
		done <- c.Call(ServiceName+".Ping", &args, &ok)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		if IsTransportError(err) {
			return err
		}
		return nil
	case <-timer.C:
		return fmt.Errorf("dist: ping: %w", ErrCallTimeout)
	}
}

// backoff returns the jittered exponential delay of the given attempt.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.opt.ReconnectMin << uint(attempt)
	if d <= 0 || d > p.opt.ReconnectMax {
		d = p.opt.ReconnectMax
	}
	p.rngMu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.rngMu.Unlock()
	return d/2 + jitter
}

// HealthCheck connects to addr exactly as a master does — a one-worker
// pool's dial and wire handshake, under the pool's connect bounds — and
// pings it within timeout. It is the probe behind focus-worker's
// -healthcheck flag and is usable by external orchestrators; a worker of
// another wire version fails it with ErrWireVersion.
func HealthCheck(addr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = dialTimeout
	}
	p, err := DialPoolOpts([]string{addr}, Options{CallTimeout: timeout})
	if err != nil {
		return fmt.Errorf("dist: healthcheck: %w", err)
	}
	defer p.Close()
	if err := ping(p.workers[0].client, timeout); err != nil {
		return fmt.Errorf("dist: healthcheck %s: %w", addr, err)
	}
	return nil
}

func (p *Pool) isClosed() bool {
	select {
	case <-p.shared().closed:
		return true
	default:
		return false
	}
}

// Close shuts down all worker connections (and, for local pools, the
// worker goroutines with them) and stops background reconnects. It is
// idempotent: the first call performs the teardown and waits for every
// background goroutine to exit; later (or concurrent) calls wait for
// that teardown to finish and return the same error.
//
// Closing a view releases only the view (its reconnect-hook slot); the
// fleet stays up for the other views and the root.
func (p *Pool) Close() error {
	if p.root != nil {
		p.SetReconnectHook(nil)
		return nil
	}
	p.closeOnce.Do(func() {
		// Holding spawnMu across the close orders us against record()'s
		// reconnect-loop spawns: no wg.Add can land after wg.Wait starts.
		p.spawnMu.Lock()
		close(p.closed)
		p.spawnMu.Unlock()
		for _, w := range p.workers {
			w.mu.Lock()
			c := w.client
			w.client = nil
			w.evicted = true
			w.mu.Unlock()
			if c != nil {
				if err := c.Close(); err != nil && p.closeErr == nil {
					p.closeErr = err
				}
			}
		}
		p.wg.Wait()
	})
	return p.closeErr
}
