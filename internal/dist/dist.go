// Package dist is the distribution substrate standing in for MPI (the
// paper ran on an MPI cluster; see DESIGN.md §2 for the substitution
// rationale). It provides a master/worker pool over net/rpc's call
// matching and the framed wire codec of codec.go, with two transports:
// in-process workers connected by net.Pipe (same handshake and frames, no
// sockets) and TCP workers for multi-process runs
// (cmd/focus-worker). The distributed assembly algorithms of paper §V run
// their per-partition work on these workers.
//
// A Pool is a table of worker slots and holds no connection: a run's
// Session is the only thing that dials workers and calls them.
//
// Unlike an MPI job — which aborts when any rank dies — the pool is fault
// tolerant: a call whose worker falls silent is cut (the liveness rule of
// liveness.go), and a worker whose connection hangs or breaks is taken
// out of the schedulable set and probed in the background with
// exponential backoff until it answers again or is evicted. The pool
// never moves a call: the caller, who knows where its state lives,
// decides where a failed task runs next (sched.go). chaos.go provides a
// deterministic fault-injecting transport for testing all of this below
// the service layer.
package dist

import (
	"cmp"
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
	// ErrWorkerDown marks a call addressed to a worker the session cannot
	// reach: a non-member, an evicted or reconnecting slot, or a closed
	// session.
	ErrWorkerDown = errors.New("dist: worker down")
	// ErrNoWorkers marks work that found no schedulable worker to run on.
	// Callers use it to fall back to local execution.
	ErrNoWorkers = errors.New("dist: no healthy workers")
)

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
	// ReconnectMin/ReconnectMax bound the exponential backoff between a
	// down worker's probes.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// MaxReconnects is the number of failed probes per outage before the
	// worker is permanently evicted.
	MaxReconnects int
	// Seed seeds the backoff jitter PRNG (deterministic tests).
	Seed int64
	// Logf receives sever, probe, reconnect and eviction warnings; nil
	// means log.Printf.
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

// handshakeTimeout bounds the wire handshake of a connect:
// CallTimeout when that is set and shorter than the dial timeout, else
// the dial timeout.
func (o Options) handshakeTimeout() time.Duration {
	if o.CallTimeout > 0 && o.CallTimeout < dialTimeout {
		return o.CallTimeout
	}
	return dialTimeout
}

// slot is one fleet worker: how to reach it and its health. It holds no
// connection. Sessions report their failures into it, and a slot that is
// down is probed (probeLoop) until it answers or is evicted.
type slot struct {
	id         int
	addr       string             // TCP address; "" for in-process workers
	newService func() interface{} // in-process service factory
	chaos      *ChaosConfig       // the server side's faults (nil = clean)

	mu    sync.Mutex
	state WorkerState
	fails int // failed probes in the current outage
}

func (s *slot) health() WorkerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// fleet is what a root pool shares with its views: the slots, the fault
// counters, the open sessions and the probe loops.
type fleet struct {
	opt   Options
	slots []*slot

	rngMu sync.Mutex
	rng   *rand.Rand

	// Fleet-lifetime fault counters, surfaced by Health().
	evictions  atomic.Int64
	reconnects atomic.Int64

	// mu guards sessions and orders probe spawns (wg.Add) and session
	// registration before Close's wg.Wait and sweep, or after its close.
	mu        sync.Mutex
	sessions  map[*Session]bool
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // probe loops
}

// Pool is a set of worker slots addressed by index. Slots are fixed at
// construction; health state decides which are schedulable at any moment.
// A Pool handle is the fleet's root or a view of it (View: a member
// mask). Neither holds a connection or makes a call: a run's Session
// does. Worker ids are always fleet-global.
type Pool struct {
	*fleet
	parent *Pool  // the handle a view was opened from; nil on the root
	mask   []bool // member slots (nil = all)

	// completions counts finished calls of the sessions opened from this
	// handle and its views: on the root, of every session of the fleet.
	completions atomic.Int64
}

func newPool(opt Options, slots []*slot) *Pool {
	opt = opt.withDefaults()
	return &Pool{fleet: &fleet{
		opt:      opt,
		slots:    slots,
		rng:      rand.New(rand.NewSource(opt.Seed)),
		sessions: map[*Session]bool{},
		closed:   make(chan struct{}),
	}}
}

// allowed reports whether worker id is a member of this handle.
func (p *Pool) allowed(id int) bool {
	return p.mask == nil || (id >= 0 && id < len(p.mask) && p.mask[id])
}

// NewLocalPool makes n in-process worker slots, each connection to which
// is served by its own service instance created by newService over
// net.Pipe, with the same handshake and wire frames a TCP deployment
// uses. It dials nothing: it only checks that the service registers.
func NewLocalPool(n int, newService func() interface{}) (*Pool, error) {
	return NewLocalPoolOpts(n, newService, DefaultOptions())
}

// NewLocalPoolOpts is NewLocalPool with explicit fault-tolerance options.
func NewLocalPoolOpts(n int, newService func() interface{}, opt Options) (*Pool, error) {
	return NewLocalChaosPool(n, newService, opt, nil)
}

// NewLocalChaosPool is NewLocalPoolOpts with a deterministic
// fault-injecting transport: chaos(i) returns the chaos configuration of
// the server side of every connection to worker i (nil = clean). Passing
// chaos == nil yields a plain local pool.
func NewLocalChaosPool(n int, newService func() interface{}, opt Options, chaos func(worker int) *ChaosConfig) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: pool size %d", n)
	}
	if _, err := register(newService()); err != nil {
		return nil, err
	}
	p := newPool(opt, make([]*slot, n))
	for i := range p.slots {
		p.slots[i] = &slot{id: i, newService: newService}
		if chaos != nil {
			if cfg := chaos(i); cfg != nil {
				c := *cfg
				p.slots[i].chaos = &c
			}
		}
	}
	return p, nil
}

// DialPool makes a slot for each already-running TCP worker and probes
// each once (HealthCheck's dial, handshake and Ping), so a worker that is
// unreachable or speaks another wire version fails it at start.
func DialPool(addrs []string) (*Pool, error) {
	return DialPoolOpts(addrs, DefaultOptions())
}

// DialPoolOpts is DialPool with explicit fault-tolerance options.
func DialPoolOpts(addrs []string, opt Options) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	p := newPool(opt, make([]*slot, len(addrs)))
	for i, addr := range addrs {
		p.slots[i] = &slot{id: i, addr: addr}
		if err := p.check(p.slots[i]); err != nil {
			return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
		}
	}
	return p, nil
}

// dial connects to s and completes the wire handshake: over TCP to a
// remote worker, else over a pipe to a freshly served in-process service
// instance, whose server runs the same handshake a TCP focus-worker does.
// c receives the connection's signs of life (liveness.go).
func (f *fleet) dial(s *slot, c *conn) (*rpc.Client, error) {
	var nc net.Conn
	if s.addr != "" {
		var err error
		if nc, err = net.DialTimeout("tcp", s.addr, dialTimeout); err != nil {
			return nil, err
		}
	} else {
		srv, err := register(s.newService())
		if err != nil {
			return nil, err
		}
		var sc net.Conn
		nc, sc = net.Pipe()
		if f.opt.WrapConn != nil {
			sc = f.opt.WrapConn(s.id, sc)
		}
		if s.chaos != nil {
			sc = WrapChaos(sc, *s.chaos)
		}
		go serveConn(srv, sc, f.opt.handshakeTimeout(), nil)
	}
	cc, err := newWireClientCodec(liveConn{Conn: nc, c: c}, f.opt.handshakeTimeout())
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("dist: worker %d: %w", s.id, err)
	}
	return rpc.NewClientWithCodec(cc), nil
}

// check is the probe of a slot: dial, handshake, then a Ping answered
// within CallTimeout (dialTimeout when unset), and close. A service
// without a Ping method still proves liveness by answering with a
// ServerError.
func (f *fleet) check(s *slot) error {
	c, err := f.dial(s, new(conn))
	if err != nil {
		return err
	}
	defer c.Close()
	timer := time.NewTimer(cmp.Or(max(f.opt.CallTimeout, 0), dialTimeout))
	defer timer.Stop()
	select {
	case err := <-startProbe(c).answer:
		if !IsTransportError(err) {
			err = nil
		}
		return err
	case <-timer.C:
		return fmt.Errorf("dist: ping: %w", ErrCallTimeout)
	}
}

// HealthCheck probes the worker at addr as the pool probes a slot — the
// pool's dial and wire handshake under its connect bounds, then a Ping
// within timeout (dialTimeout when not positive), and close. It is the probe behind
// focus-worker's -healthcheck flag and is usable by external
// orchestrators; a worker of another wire version fails it with
// ErrWireVersion.
func HealthCheck(addr string, timeout time.Duration) error {
	f := &fleet{opt: Options{CallTimeout: timeout}.withDefaults()}
	if err := f.check(&slot{addr: addr}); err != nil {
		return fmt.Errorf("dist: healthcheck %s: %w", addr, err)
	}
	return nil
}

// down marks s reconnecting, after a session's counted transport
// failure or failed dial, and starts its probe loop. A slot already down
// or evicted, or one of a closed fleet, is left as it is.
func (f *fleet) down(s *slot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s.mu.Lock()
	live := s.state == WorkerLive && !isClosed(f.closed)
	if live {
		s.state = WorkerReconnecting
	}
	s.mu.Unlock()
	if live {
		f.wg.Add(1)
		go f.probeLoop(s)
	}
}

// probeLoop probes the down slot s with exponential backoff and jitter
// until it answers (the slot reads live again) or MaxReconnects probes
// have failed (it is evicted). The probes hold no connection, so nothing
// here counts as a reconnect: sessions redial a live slot on their next
// call to it (Session.client).
func (f *fleet) probeLoop(s *slot) {
	defer f.wg.Done()
	for attempt := 0; attempt < f.opt.MaxReconnects; attempt++ {
		select {
		case <-f.closed:
			return
		case <-time.After(f.backoff(attempt)):
		}
		err := f.check(s)
		s.mu.Lock()
		if s.state != WorkerReconnecting { // evicted meanwhile
			s.mu.Unlock()
			return
		}
		if err == nil {
			s.state, s.fails = WorkerLive, 0
			s.mu.Unlock()
			f.opt.Logf("dist: worker %d answers its probe; live again", s.id)
			return
		}
		s.fails++
		s.mu.Unlock()
		f.opt.Logf("dist: worker %d probe %d/%d: %v", s.id, attempt+1, f.opt.MaxReconnects, err)
	}
	f.evict(s)
	f.opt.Logf("dist: worker %d evicted after %d failed probes", s.id, f.opt.MaxReconnects)
}

// evict takes s out of the schedulable set for good and counts it.
func (f *fleet) evict(s *slot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != WorkerEvicted {
		s.state = WorkerEvicted
		f.evictions.Add(1)
	}
}

// backoff returns the jittered exponential delay of the given attempt.
func (f *fleet) backoff(attempt int) time.Duration {
	d := f.opt.ReconnectMin << uint(attempt)
	if d <= 0 || d > f.opt.ReconnectMax {
		d = f.opt.ReconnectMax
	}
	f.rngMu.Lock()
	jitter := time.Duration(f.rng.Int63n(int64(d)/2 + 1))
	f.rngMu.Unlock()
	return d/2 + jitter
}

func isClosed(closed chan struct{}) bool {
	select {
	case <-closed:
		return true
	default:
		return false
	}
}

// Size returns the number of worker slots (healthy or not).
func (p *Pool) Size() int { return len(p.slots) }

// NumHealthy returns the number of member slots that read live.
func (p *Pool) NumHealthy() int { return len(p.HealthyIDs()) }

// Healthy reports whether worker i is a member whose slot reads live.
// Out-of-range ids are unhealthy.
func (p *Pool) Healthy(i int) bool {
	return i >= 0 && i < len(p.slots) && p.allowed(i) && p.slots[i].health() == WorkerLive
}

// HealthyIDs returns the ids of the member slots that read live, in
// ascending order. The snapshot is advisory: a worker may die between
// the call and its use.
func (p *Pool) HealthyIDs() []int { return healthyIDs(len(p.slots), p.Healthy) }

// healthyIDs returns the ids in [0,n) that healthy reports, ascending.
func healthyIDs(n int, healthy func(int) bool) []int {
	var ids []int
	for i := range n {
		if healthy(i) {
			ids = append(ids, i)
		}
	}
	return ids
}

// Completions returns the number of finished calls (any outcome,
// including timeouts and severed calls) of the sessions opened from this
// handle and its views; on the root, of every session of the fleet.
func (p *Pool) Completions() int64 { return p.completions.Load() }

// Close closes the fleet's open sessions (and, for local pools, the
// worker goroutines serving them), stops the probe loops and marks every
// slot evicted. It is idempotent: the first call performs the teardown
// and waits for every probe loop to exit; later (or concurrent) calls
// wait for that teardown to finish. Closing a view does nothing: it owns
// nothing.
func (p *Pool) Close() error {
	if p.parent != nil {
		return nil
	}
	p.closeOnce.Do(func() {
		p.mu.Lock()
		close(p.closed)
		sessions := p.sessions
		p.sessions = nil
		p.mu.Unlock()
		for s := range sessions {
			s.Close()
		}
		for _, s := range p.slots {
			s.mu.Lock()
			s.state = WorkerEvicted
			s.mu.Unlock()
		}
		p.wg.Wait()
	})
	return nil
}
