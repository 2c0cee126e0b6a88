package dist

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"focus/internal/testutil"
)

// NapService answers Echo after sleeping args.X milliseconds.
type NapService struct{}

func (NapService) Echo(args *EchoArgs, reply *EchoReply) error {
	time.Sleep(time.Duration(args.X) * time.Millisecond)
	reply.X = args.X * 2
	return nil
}

func (NapService) Ping(args, reply *Ack) error { return nil }

// TestLivenessHungCallCut: on a fresh fleet — no call of any method has
// ever completed — a single-member view's call on a hung worker is cut
// with ErrCallTimeout once its probe has gone a whole floor unanswered,
// about 2 × the floor after the call started.
func TestLivenessHungCallCut(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalChaosPool(2, func() interface{} { return &EchoService{} }, Options{MaxFailures: 1, Logf: t.Logf},
		func(w int) *ChaosConfig {
			if w == 1 {
				return &ChaosConfig{Seed: 5, FirstSafe: 1, HangProb: 1, HangFor: time.Hour}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	view, err := p.View([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var reply EchoReply
	err = view.Call(1, "Echo", &EchoArgs{X: 1}, &reply)
	el := time.Since(start)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("hung call = %v, want ErrCallTimeout", err)
	}
	if el < 2*livenessFloor || el > 2*livenessFloor+time.Second {
		t.Fatalf("hung call cut after %v, want about %v", el, 2*livenessFloor)
	}
	if p.Healthy(1) || !p.Healthy(0) {
		t.Fatalf("after the cut: health %+v", p.Health())
	}
}

// TestLivenessChaosHangNoLeak: a call on a BlockService worker whose
// every response write hangs for an hour is cut by the liveness rule, and
// once the pool is closed none of the worker's goroutines is left. The
// probe's Ping is served off net/rpc's read loop, so the loop reads the
// close and releases the hang; a service without Ping would have the loop
// answer the probe itself, wedged behind the hung write, for the hour.
func TestLivenessChaosHangNoLeak(t *testing.T) {
	defer testutil.NoLeaks(t)
	var blocked int32
	p, err := NewLocalChaosPool(1, func() interface{} { return &BlockService{blocked: &blocked} }, Options{MaxFailures: 1, Logf: t.Logf},
		func(int) *ChaosConfig { return &ChaosConfig{Seed: 5, FirstSafe: 1, HangProb: 1, HangFor: time.Hour} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var reply EchoReply
	if err := p.Call(0, "Echo", &EchoArgs{X: 1}, &reply); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("hung call = %v, want ErrCallTimeout", err)
	}
}

// TestLivenessSlowCallNotCut: a job of 10 ms calls runs first, then a
// second job's calls sleep 5 s — 500× the first job's and 2.5 floors.
// Their workers answer every probe, so nothing is cut or severed.
func TestLivenessSlowCallNotCut(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalPoolOpts(2, func() interface{} { return NapService{} }, Options{MaxFailures: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, ms := range []int{10, 5000} {
		job, err := p.View([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		replies := []interface{}{&EchoReply{}, &EchoReply{}}
		_, errs := job.ParallelCallsPlacedCtx(nil, 2, func(t int) int { return t }, "Echo",
			func(int) interface{} { return &EchoArgs{X: ms} }, replies)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%d ms task %d: %v", ms, i, err)
			}
			if r := replies[i].(*EchoReply); r.X != 2*ms {
				t.Fatalf("%d ms task %d: reply %+v", ms, i, r)
			}
		}
	}
	if h := p.Health(); h.Reconnects != 0 || h.Evictions != 0 || h.Healthy != 2 {
		t.Fatalf("a slow but live call was cut: %+v", h)
	}
}

// trickleConn is a slow link on the worker's side: every read takes at
// most 8 KB after a 70 ms pause, and writes go out 16 KB per 50 ms.
type trickleConn struct{ net.Conn }

func (c trickleConn) Read(b []byte) (int, error) {
	time.Sleep(70 * time.Millisecond)
	return c.Conn.Read(b[:min(len(b), 8<<10)])
}

func (c trickleConn) Write(b []byte) (int, error) {
	var n int
	for n < len(b) {
		time.Sleep(50 * time.Millisecond)
		m, err := c.Conn.Write(b[n:min(len(b), n+16<<10)])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestLivenessSlowTransferNotCut: over a slow link, a 512 KB request
// takes about 4.5 s to go out and its 1 MB reply about 3 s to come back.
// The probe first queues behind the request, then its answer queues
// behind the reply, each for more than a floor; the bytes moving are the
// worker's signs of life, so the call is not cut.
func TestLivenessSlowTransferNotCut(t *testing.T) {
	defer testutil.NoLeaks(t)
	p, err := NewLocalPoolOpts(1, func() interface{} { return &EchoService{} }, Options{
		MaxFailures: 1, Logf: t.Logf,
		WrapConn: func(_ int, conn net.Conn) net.Conn { return trickleConn{conn} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := strings.Repeat("ACGT", 128<<10)
	var reply EchoReply
	start := time.Now()
	if err := p.Call(0, "Echo", &EchoArgs{X: 1, S: s}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.S != s+s {
		t.Fatalf("reply of %d bytes, want %d", len(reply.S), 2*len(s))
	}
	if el := time.Since(start); el < 2*livenessFloor {
		t.Fatalf("premise: the transfer took %v, under 2 floors", el)
	}
	if h := p.Health(); h.Reconnects != 0 || h.Evictions != 0 || h.Healthy != 1 {
		t.Fatalf("a slow but live transfer was cut: %+v", h)
	}
}
