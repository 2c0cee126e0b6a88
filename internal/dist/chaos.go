package dist

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// The chaos transport injects faults below the RPC service layer: a
// wrapped connection can hang mid-response (a stuck worker), reset
// mid-message (a dying worker), or delay writes (a straggler). Faults are
// drawn from a PRNG seeded by ChaosConfig.Seed, so a given connection
// replays the same fault pattern for the same write sequence — tests pick
// seeds, not sleeps. Wrap the *server* side of a connection: the request
// path stays clean (the client's send never wedges), while the response
// path misbehaves exactly like a faulty worker does.

// ChaosConfig describes the fault mix of one wrapped connection. Fault
// probabilities are evaluated per write in the order hang, reset, latency.
type ChaosConfig struct {
	// Seed seeds the connection's PRNG. The fault pattern is a pure
	// function of Seed and the write sequence.
	Seed int64
	// FirstSafe exempts the first n writes from injection, letting
	// connection setup (the server's first write is its handshake ack;
	// a pool cannot be built on a worker that never acks) and a
	// configurable healthy prefix complete.
	FirstSafe int
	// HangProb is the probability a write hangs for HangFor (default 10s),
	// simulating a stuck worker. The hang releases early when the
	// connection is closed.
	HangProb float64
	HangFor  time.Duration
	// ResetProb is the probability a write delivers only half its bytes
	// and then closes the connection (a mid-message reset).
	ResetProb float64
	// LatencyProb delays a write by a uniform duration in [0, MaxLatency).
	LatencyProb float64
	MaxLatency  time.Duration
}

var (
	errChaosHang  = errors.New("dist: chaos: write hung")
	errChaosReset = errors.New("dist: chaos: connection reset mid-message")
)

type chaosConn struct {
	net.Conn
	cfg ChaosConfig

	mu     sync.Mutex
	rng    *rand.Rand
	writes int

	closeOnce sync.Once
	closed    chan struct{}

	deadOnce sync.Once
	dead     chan struct{}
}

// WrapChaos wraps conn with deterministic fault injection.
func WrapChaos(conn net.Conn, cfg ChaosConfig) net.Conn {
	if cfg.HangFor <= 0 {
		cfg.HangFor = 10 * time.Second
	}
	return &chaosConn{
		Conn:   conn,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		closed: make(chan struct{}),
		dead:   make(chan struct{}),
	}
}

// Read passes through, but a read error (the peer closed or reset the
// connection) marks the conn dead, releasing any in-progress or future
// write hang: an rpc server goroutine writing a response into a wedged
// conn whose client has already hung up must drain promptly, not sleep
// out the full HangFor per queued response — that is a goroutine leak,
// not a simulated fault.
func (c *chaosConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if err != nil {
		c.deadOnce.Do(func() { close(c.dead) })
	}
	return n, err
}

func (c *chaosConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	roll := c.rng.Float64()
	var lat time.Duration
	if c.cfg.MaxLatency > 0 {
		lat = time.Duration(c.rng.Int63n(int64(c.cfg.MaxLatency)))
	}
	c.mu.Unlock()
	if n <= c.cfg.FirstSafe {
		return c.Conn.Write(b)
	}
	switch {
	case roll < c.cfg.HangProb:
		select {
		case <-c.closed:
		case <-c.dead:
		case <-time.After(c.cfg.HangFor):
		}
		return 0, errChaosHang
	case roll < c.cfg.HangProb+c.cfg.ResetProb:
		half := len(b) / 2
		if half > 0 {
			c.Conn.Write(b[:half])
		}
		c.Close()
		return half, errChaosReset
	case roll < c.cfg.HangProb+c.cfg.ResetProb+c.cfg.LatencyProb:
		if lat > 0 {
			time.Sleep(lat)
		}
	}
	return c.Conn.Write(b)
}

func (c *chaosConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// chaosListener wraps accepted connections with chaos. Each connection
// gets a distinct deterministic PRNG stream derived from the base seed.
type chaosListener struct {
	net.Listener
	cfg ChaosConfig

	mu   sync.Mutex
	next int64
}

// NewChaosListener wraps lis so every accepted connection misbehaves per
// cfg, giving TCP worker tests the same fault substrate local pools get
// from NewLocalChaosPool.
func NewChaosListener(lis net.Listener, cfg ChaosConfig) net.Listener {
	return &chaosListener{Listener: lis, cfg: cfg}
}

func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	id := l.next
	l.next++
	l.mu.Unlock()
	cfg := l.cfg
	cfg.Seed += id * 1000003
	return WrapChaos(conn, cfg), nil
}
