package dist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"focus/internal/testutil"
)

// openConn counts a worker's end of a connection as open until its first
// Close.
type openConn struct {
	net.Conn
	open *atomic.Int32
	once *sync.Once
}

func newOpenConn(c net.Conn, open *atomic.Int32) net.Conn {
	open.Add(1)
	return openConn{c, open, new(sync.Once)}
}

func (c openConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// openListener counts the connections it accepted that are still open.
type openListener struct {
	net.Listener
	open *atomic.Int32
}

func (l openListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newOpenConn(c, l.open), nil
}

// settles waits up to 2 s for open to read want: a worker sees its end
// closed a moment after the master closes its own.
func settles(t *testing.T, open *atomic.Int32, want int32, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); open.Load() != want; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d worker connections open, want %d", what, open.Load(), want)
		}
	}
}

// serveCounted runs a TCP worker for service whose accepted connections
// count in open, and returns its address and server.
func serveCounted(t *testing.T, addr string, service interface{}, open *atomic.Int32) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(service)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(openListener{lis, open})
	t.Cleanup(func() { srv.Shutdown(0) })
	return lis.Addr().String(), srv
}

// logLines collects a pool's log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(t *testing.T) func(string, ...interface{}) {
	return func(format string, args ...interface{}) {
		msg := fmt.Sprintf(format, args...)
		t.Log(msg)
		l.mu.Lock()
		l.lines = append(l.lines, msg)
		l.mu.Unlock()
	}
}

func (l *logLines) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// TestIdleFleetHoldsNoConnection: counted on the workers' side, in
// process and over TCP, a fleet holds no connection right after it is
// built, a session over N members holds N, and closing the session
// leaves none. In process, a slot that is down is then probed with the
// Ping hung: every probe fails, and between probes no connection is
// open; Close stops the probe loop.
func TestIdleFleetHoldsNoConnection(t *testing.T) {
	defer testutil.NoLeaks(t)
	var open atomic.Int32
	hang := ChaosConfig{Seed: 3, FirstSafe: 1, HangProb: 1, HangFor: time.Hour}
	for _, tc := range []struct {
		name string
		dial func(t *testing.T) (*Pool, error)
	}{
		{"in-process", func(t *testing.T) (*Pool, error) {
			return NewLocalChaosPool(3, func() interface{} { return &EchoService{} }, Options{
				CallTimeout:   50 * time.Millisecond,
				MaxFailures:   100,
				MaxReconnects: 100,
				ReconnectMin:  400 * time.Millisecond,
				ReconnectMax:  400 * time.Millisecond,
				Logf:          t.Logf,
				WrapConn:      func(_ int, c net.Conn) net.Conn { return newOpenConn(c, &open) },
			}, func(w int) *ChaosConfig {
				if w == 0 {
					return &hang
				}
				return nil
			})
		}},
		{"tcp", func(t *testing.T) (*Pool, error) {
			addr, _ := serveCounted(t, "127.0.0.1:0", &EchoService{}, &open)
			return DialPoolOpts([]string{addr, addr, addr}, Options{Logf: t.Logf})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.dial(t)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			settles(t, &open, 0, "idle fleet")
			view, err := p.View([]int{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			s := view.Session()
			if n := open.Load(); n != 2 {
				t.Fatalf("a session of 2 members: %d worker connections open, want 2", n)
			}
			if err := s.Call(nil, 2, "Ping", new(Ack), new(Ack)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			settles(t, &open, 0, "after the session's Close")
			if tc.name != "in-process" {
				return
			}
			// Worker 0 hangs every reply after the handshake: the session's
			// call is cut, and each probe's Ping times out.
			s = p.Session()
			if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 1}, new(EchoReply)); !errors.Is(err, ErrCallTimeout) {
				t.Fatalf("hung call = %v, want ErrCallTimeout", err)
			}
			s.Close()
			for fails := 1; fails <= 2; fails++ {
				for deadline := time.Now().Add(5 * time.Second); p.Health().Workers[0].ConsecutiveFails < fails; time.Sleep(2 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("probe %d never failed: %+v", fails, p.Health())
					}
				}
				// The next probe is at least 200 ms away.
				settles(t, &open, 0, fmt.Sprintf("after failed probe %d", fails))
			}
			if h := p.Health(); h.Workers[0].State != WorkerReconnecting || h.Reconnects != 0 {
				t.Fatalf("fleet after failed probes: %+v", h)
			}
		})
	}
}

// TestSessionOutageCountsOnce: one session's timeout cut of worker 1,
// the fleet's probe answered, then the session's next call to it: the
// fleet counts one reconnect and logs one sever and one reconnect.
func TestSessionOutageCountsOnce(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32 = 1
	defer atomic.StoreInt32(&blocked, 0)
	var log logLines
	p, err := NewLocalPoolOpts(2, func() interface{} { return &BlockService{blocked: &blocked} },
		Options{CallTimeout: 50 * time.Millisecond, ReconnectMin: 10 * time.Millisecond, ReconnectMax: 10 * time.Millisecond, Logf: log.logf(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	var reply EchoReply
	if err := s.Call(nil, 1, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("hung session call = %v, want ErrCallTimeout", err)
	}
	for deadline := time.Now().Add(5 * time.Second); !p.Healthy(1); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker 1 never answered a probe: %+v", p.Health())
		}
	}
	atomic.StoreInt32(&blocked, 0)
	if err := s.Call(nil, 1, "Echo", &EchoArgs{X: 2}, &reply); err != nil || reply.X != 4 {
		t.Fatalf("call after the outage: %+v %v", reply, err)
	}
	if h := p.Health(); h.Reconnects != 1 || h.Evictions != 0 {
		t.Fatalf("one outage: %d reconnects and %d evictions, want 1 and 0", h.Reconnects, h.Evictions)
	}
	if sev, rec := log.count("worker 1 connection severed"), log.count("worker 1 reconnected"); sev != 1 || rec != 1 {
		t.Fatalf("one outage logged %d severs and %d reconnects, want 1 each", sev, rec)
	}
}

// TestProbeCountsFailures: a TCP worker shut down under a session fails
// the session's next call, and the fleet's probes of it are refused: its
// consecutive_fails counts them. Once a worker listens at the address
// again, a probe is answered and the count is back at 0.
func TestProbeCountsFailures(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) }) // after the workers' shutdown
	var open atomic.Int32
	addr, srv := serveCounted(t, "127.0.0.1:0", &EchoService{}, &open)
	p, err := DialPoolOpts([]string{addr}, Options{
		MaxReconnects: 100,
		ReconnectMin:  20 * time.Millisecond,
		ReconnectMax:  20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	defer s.Close()
	srv.Shutdown(0)
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 1}, new(EchoReply)); !IsTransportError(err) {
		t.Fatalf("call to a shut-down worker = %v, want a transport error", err)
	}
	for deadline := time.Now().Add(5 * time.Second); p.Health().Workers[0].ConsecutiveFails < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no failed probe counted: %+v", p.Health())
		}
	}
	if w := p.Health().Workers[0]; w.State != WorkerReconnecting {
		t.Fatalf("worker after failed probes: %+v", w)
	}
	serveCounted(t, addr, &EchoService{}, &open)
	for deadline := time.Now().Add(5 * time.Second); !p.Healthy(0); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker never answered a probe after its restart: %+v", p.Health())
		}
	}
	if w := p.Health().Workers[0]; w.ConsecutiveFails != 0 {
		t.Fatalf("live worker reads %d consecutive fails, want 0", w.ConsecutiveFails)
	}
	if err := s.Call(nil, 0, "Echo", &EchoArgs{X: 2}, new(EchoReply)); err != nil {
		t.Fatalf("call after the restart: %v", err)
	}
}
