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
// tolerant: a call whose worker falls silent is cut (the liveness rule of
// liveness.go), and a worker whose connection hangs or breaks is evicted
// from the schedulable set and reconnected in the background with
// exponential backoff. The pool never moves a call: the caller, who knows
// where its state lives, decides where a failed task runs next (sched.go).
// chaos.go provides a deterministic fault-injecting transport for testing
// all of this below the service layer.
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
	// ErrCallTimeout marks a call that ran past its deadline: the liveness
	// rule's bound, or Options.CallTimeout when that is set. The worker's
	// connection is severed when this happens (the reply of an abandoned
	// call must never be written concurrently with a retry).
	ErrCallTimeout = errors.New("dist: call timeout")
	// ErrWorkerDown marks a call addressed to a worker with no live
	// connection (evicted, reconnecting, or closed).
	ErrWorkerDown = errors.New("dist: worker down")
	// ErrNoWorkers marks work that found no schedulable worker to run on.
	// Callers use it to fall back to local execution.
	ErrNoWorkers = errors.New("dist: no healthy workers")
)

// Options configure the pool's fault tolerance. The zero value watches
// every call by the liveness rule and uses the default health
// thresholds.
type Options struct {
	// CallTimeout, when positive, is a fixed per-call deadline that
	// overrides the liveness rule. 0 cuts a call only when its worker
	// falls silent (liveness.go), however long the call runs.
	CallTimeout time.Duration
	// MaxFailures is the number of consecutive transport failures
	// (timeouts, broken connections) after which a worker is permanently
	// evicted instead of reconnected. Successful calls reset the count;
	// application-level errors returned by the service and calls their
	// caller canceled do not touch it.
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

// DefaultOptions returns the default fault-tolerance parameters: the
// liveness rule watches every call, so a worker that hangs with its
// connection open is cut without any setting.
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

	// The liveness rule's signs of life (liveness.go): UnixNano of the
	// last byte read from the worker and of the last byte written to it.
	heard, wrote atomic.Int64
}

// Pool is a set of workers addressed by index. Worker slots are fixed at
// construction; health state decides which are schedulable at any moment.
// A Pool handle is a root (owns the fleet and its connections), a view
// (View: a member mask over its parent's connections) or a session
// (Session: connections of its own to its parent's members). Worker ids
// are always root-global.
type Pool struct {
	opt     Options
	workers []*worker

	// parent is the handle a view or session was opened from (nil on the
	// root); mask[id] marks this handle's member workers (nil = all).
	parent *Pool
	mask   []bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// completions counts finished worker calls (any outcome) of this
	// handle and of the handles opened from it.
	completions atomic.Int64

	// Fleet-wide fault counters (root-held), surfaced by Health().
	evictions  atomic.Int64
	reconnects atomic.Int64

	// Connection lifecycle, on a root or a session; a view owns no
	// connections and has none (closed is nil). A root's sessions close
	// with it.
	sessions  map[*Pool]bool
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
		closed: make(chan struct{}),
	}
}

// shared returns the root pool, which holds the fleet's slots and
// counters; for a root pool that is the pool itself.
func (p *Pool) shared() *Pool {
	for p.parent != nil {
		p = p.parent
	}
	return p
}

// owner returns the handle whose connections p's calls use: p itself on
// a root or a session, the nearest such parent of a view.
func (p *Pool) owner() *Pool {
	for p.closed == nil {
		p = p.parent
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
	srv, err := register(w.newService())
	if err != nil {
		return nil, err
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
	cc, err := newWireClientCodec(liveConn{Conn: conn, w: w}, p.opt.handshakeTimeout())
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

func (p *Pool) workerRunnable(w *worker) bool {
	if !p.allowed(w.id) {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.client != nil && !w.evicted
}

// Call invokes method (without the service prefix) on worker i under the
// liveness rule, or under Options.CallTimeout when set.
func (p *Pool) Call(i int, method string, args, reply interface{}) error {
	return p.CallCtx(nil, i, method, args, reply)
}

// CallCtx is Call bounded by ctx: cancellation (or a ctx deadline) severs
// the in-flight call exactly like ErrCallTimeout does — the connection is
// closed so the abandoned reply can never be written concurrently with a
// retry — and the returned error wraps the context's cause. A nil ctx
// means no bound beyond the call's deadline.
func (p *Pool) CallCtx(ctx context.Context, i int, method string, args, reply interface{}) error {
	if i < 0 || i >= len(p.workers) {
		return fmt.Errorf("dist: worker %d out of range [0,%d)", i, len(p.workers))
	}
	if !p.allowed(i) {
		return fmt.Errorf("dist: worker %d not a member of this pool handle: %w", i, ErrWorkerDown)
	}
	return p.callWorkerCtx(ctx, p.workers[i], method, args, reply)
}

// Completions returns the total number of finished worker calls (any
// outcome, including timeouts and severed calls).
func (p *Pool) Completions() int64 { return p.completions.Load() }

// callWorkerCtx runs one call on w under its deadline and feeds the
// outcome into the worker's health state. The deadline is
// Options.CallTimeout when set; else the call runs until its worker falls
// silent while owing a liveness probe an answer (liveness.go). The
// optional context bounds the call further: a canceled (or
// deadline-expired) ctx severs the in-flight call exactly like a timeout,
// because a kept connection could still write into the abandoned reply.
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
	defer func() {
		for h := p; h != nil; h = h.parent {
			h.completions.Add(1)
		}
	}()
	// client.Go's send runs in the calling goroutine and can itself block
	// on a wedged connection, so the whole round-trip goes in a goroutine.
	done := make(chan error, 1)
	go func() {
		call := c.Go(ServiceName+"."+method, args, reply, make(chan *rpc.Call, 1))
		done <- (<-call.Done).Error
	}()
	bound := livenessFloor
	if p.opt.CallTimeout > 0 {
		bound = p.opt.CallTimeout
	}
	timer := time.NewTimer(bound)
	defer timer.Stop()
	var pr *probe
	var answer <-chan error
	for {
		select {
		case err := <-done:
			p.record(w, c, err)
			return err
		case err := <-answer:
			if IsTransportError(err) {
				p.record(w, c, err)
				return err
			}
			// The worker is alive; the running timer sends the next probe.
			pr, answer = nil, nil
		case <-timer.C:
			if p.opt.CallTimeout <= 0 {
				if pr == nil {
					pr = startProbe(c)
					answer = pr.answer
					timer.Reset(livenessFloor)
					continue
				}
				if left := livenessFloor - pr.silence(w); left > 0 {
					timer.Reset(left)
					continue
				}
			}
			err := fmt.Errorf("dist: %s on worker %d after %v: %w", method, w.id, p.opt.CallTimeout, ErrCallTimeout)
			if pr != nil {
				err = fmt.Errorf("dist: %s on worker %d: silent for %v: %w", method, w.id, livenessFloor, ErrCallTimeout)
			}
			p.record(w, c, err)
			return err
		case <-cdone:
			err := fmt.Errorf("dist: %s on worker %d: %w", method, w.id, context.Cause(ctx))
			p.sever(w, c, err, false)
			return err
		}
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
// failures sever the connection and count toward MaxFailures: net/rpc
// clients are not reusable after an I/O error, and a timed-out call could
// still write into its abandoned reply if the connection were kept.
func (p *Pool) record(w *worker, c *rpc.Client, err error) {
	if IsTransportError(err) {
		p.sever(w, c, err, true)
		return
	}
	w.mu.Lock()
	if w.client == c { // else stale generation: an already-severed conn
		w.fails = 0
	}
	w.mu.Unlock()
}

// sever closes w's connection c (nil: a connect that failed) and
// reconnects in the background, or evicts w after MaxFailures
// consecutive counted failures. A call its caller canceled is severed
// uncounted: the abandoned call could still write its reply, so the
// connection cannot be kept, but the worker did nothing wrong. A counted
// sever in a session also severs the fleet slot's connection, uncounted,
// so fleet health (Healthy, Health) shows the cut. Once the connection's
// owner is closed it only drops the connection.
func (p *Pool) sever(w *worker, c *rpc.Client, err error, counted bool) {
	p = p.owner() // reconnect spawning and lifecycle state live with the connections
	w.mu.Lock()
	if w.client != c { // stale generation: outcome of an already-severed conn
		w.mu.Unlock()
		return
	}
	w.client = nil
	closed := p.isClosed()
	if counted && !closed {
		w.fails++
	}
	dead := !closed && w.fails >= p.opt.MaxFailures
	fails := w.fails
	w.mu.Unlock()
	if c != nil {
		c.Close()
	}
	if closed {
		return
	}
	if dead {
		p.evict(w)
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
	if counted && p.parent != nil {
		// A session's transport failure is the fleet's news too: the
		// fleet's slot drops its (idle) connection, uncounted, and reads
		// live again only once its own reconnect's Ping is answered.
		f := p.shared()
		fw := f.workers[w.id]
		fw.mu.Lock()
		fc := fw.client
		fw.mu.Unlock()
		if fc != nil {
			f.sever(fw, fc, fmt.Errorf("a session's connection failed: %w", err), false)
		}
	}
}

// evict takes w out of the schedulable set for good, with the fleet's
// slot of the same worker (a session's eviction is the fleet's), and
// counts it in the fleet.
func (p *Pool) evict(w *worker) {
	f := p.shared()
	for _, s := range []*worker{w, f.workers[w.id]} {
		s.mu.Lock()
		s.evicted = true
		s.mu.Unlock()
	}
	f.evictions.Add(1)
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
		p.shared().reconnects.Add(1)
		p.opt.Logf("dist: worker %d reconnected", w.id)
		return
	}
	p.evict(w)
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
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-startProbe(c).answer:
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
	case <-p.owner().closed:
		return true
	default:
		return false
	}
}

// Close shuts down the handle's own worker connections (and, for local
// pools, the worker goroutines with them) and stops their background
// reconnects; closing a root closes its open sessions too. It is
// idempotent: the first call performs the teardown and waits for every
// background goroutine to exit; later (or concurrent) calls wait for
// that teardown to finish and return the same error.
//
// Closing a view does nothing: it owns no connections.
func (p *Pool) Close() error {
	if p.closed == nil {
		return nil
	}
	p.closeOnce.Do(func() {
		// Holding spawnMu across the close orders us against record()'s
		// reconnect-loop spawns and Session's registration: no wg.Add
		// can land after wg.Wait starts, and no session after the sweep.
		p.spawnMu.Lock()
		close(p.closed)
		sessions := p.sessions
		p.sessions = nil
		p.spawnMu.Unlock()
		for s := range sessions {
			s.Close()
		}
		if f := p.shared(); f != p {
			f.spawnMu.Lock()
			delete(f.sessions, p)
			f.spawnMu.Unlock()
		}
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
