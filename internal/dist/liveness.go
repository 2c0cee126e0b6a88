package dist

import (
	"net"
	"net/rpc"
	"sync/atomic"
	"time"
)

// The liveness rule (DESIGN.md §13.3): a worker that stops answering
// while its connection stays open must not stall the run, yet no fixed
// timeout suits every method at every scale, and a bound taken from other
// calls' times would cut a healthy call that is merely slower than they
// were. So a call is never cut for running long, only for silence. Each
// livenessFloor a call is in flight, it probes its worker with a Ping on
// the call's own connection; the server answers it concurrently with the
// call. A worker that goes a whole livenessFloor owing the probe an answer
// without any sign of life is hung: the call ends with ErrCallTimeout,
// which severs the connection and reschedules or re-hosts the task like
// any timeout. Signs of life are the probe's answer, any byte of a reply
// arriving (a large reply holds the probe's answer up behind it), and,
// while the probe is still queued behind a request being written, any
// byte of that request going out. Options.CallTimeout, when set, replaces
// the rule with a fixed deadline.

const (
	// livenessFloor is both the probe interval and how long a worker may
	// stay silent while owing a probe an answer: a hung call is cut about
	// 2 × livenessFloor after it starts.
	livenessFloor = dialTimeout
	// liveChunk bounds one write on a worker connection, so a long request
	// shows progress as it goes out.
	liveChunk = 64 << 10
)

// liveConn is the master's end of a worker connection. It notes on the
// session's conn when a byte last came back and last went out.
type liveConn struct {
	net.Conn
	c *conn
}

func (c liveConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.c.heard.Store(time.Now().UnixNano())
	}
	return n, err
}

func (c liveConn) Write(b []byte) (int, error) {
	var n int
	for n < len(b) {
		m, err := c.Conn.Write(b[n:min(len(b), n+liveChunk)])
		n += m
		if m > 0 {
			c.c.wrote.Store(time.Now().UnixNano())
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// probe is one liveness Ping in flight on a call's connection.
type probe struct {
	start  int64        // UnixNano the probe was started
	sent   atomic.Int64 // UnixNano its request was written; 0 while queued
	answer chan error   // its outcome (buffered: an abandoned probe never blocks)
}

// startProbe pings the worker on c. The send goes in a goroutine: it
// queues behind any request still being written on c.
func startProbe(c *rpc.Client) *probe {
	pr := &probe{start: time.Now().UnixNano(), answer: make(chan error, 1)}
	go func() {
		var args, ok Ack
		call := c.Go(ServiceName+".Ping", &args, &ok, make(chan *rpc.Call, 1))
		pr.sent.Store(time.Now().UnixNano())
		pr.answer <- (<-call.Done).Error
	}()
	return pr
}

// silence is how long c has owed pr an answer without a sign of life.
func (pr *probe) silence(c *conn) time.Duration {
	now := time.Now().UnixNano()
	if sent := pr.sent.Load(); sent != 0 {
		return time.Duration(now - max(sent, c.heard.Load()))
	}
	return time.Duration(now - max(pr.start, c.wrote.Load()))
}
