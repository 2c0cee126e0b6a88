package dist

import (
	"net"
	"sync/atomic"
	"testing"
)

// EchoService is a minimal RPC service for transport tests.
type EchoService struct {
	calls int64
}

type EchoArgs struct {
	X int
	S string
}

type EchoReply struct {
	X int
	S string
}

func appendEcho(dst []byte, x int, s string) []byte {
	return AppendString(AppendVarint(dst, int64(x)), s)
}

func decodeEcho(src []byte, x *int, s *string) error {
	rd := NewWireReader(src)
	*x = int(rd.Varint())
	*s = rd.String()
	return rd.Finish()
}

func (a *EchoArgs) AppendTo(dst []byte) []byte  { return appendEcho(dst, a.X, a.S) }
func (a *EchoArgs) DecodeFrom(src []byte) error { return decodeEcho(src, &a.X, &a.S) }

func (r *EchoReply) AppendTo(dst []byte) []byte  { return appendEcho(dst, r.X, r.S) }
func (r *EchoReply) DecodeFrom(src []byte) error { return decodeEcho(src, &r.X, &r.S) }

func (e *EchoService) Echo(args *EchoArgs, reply *EchoReply) error {
	atomic.AddInt64(&e.calls, 1)
	reply.X = args.X * 2
	reply.S = args.S + args.S
	return nil
}

// Ping answers the liveness probe, as the assembly service does.
func (e *EchoService) Ping(args, reply *Ack) error { return nil }

func TestLocalPoolBasics(t *testing.T) {
	p, err := NewLocalPool(3, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	s := p.Session()
	for i := 0; i < 3; i++ {
		var reply EchoReply
		if err := s.Call(nil, i, "Echo", &EchoArgs{X: 21, S: "ab"}, &reply); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if reply.X != 42 || reply.S != "abab" {
			t.Errorf("worker %d: reply %+v", i, reply)
		}
	}
}

func TestLocalPoolErrors(t *testing.T) {
	if _, err := NewLocalPool(0, func() interface{} { return &EchoService{} }); err == nil {
		t.Error("size 0 accepted")
	}
	p, err := NewLocalPool(1, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Session()
	var reply EchoReply
	if err := s.Call(nil, 5, "Echo", &EchoArgs{}, &reply); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if err := s.Call(nil, 0, "NoSuchMethod", &EchoArgs{}, &reply); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestParallelCallsRoundRobin(t *testing.T) {
	p, err := NewLocalPool(2, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tasks := 7
	replies := make([]interface{}, tasks)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	times, errs := p.Session().ParallelCallsPlacedCtx(nil, tasks, func(tk int) int { return tk % 2 }, "Echo", func(tk int) interface{} {
		return &EchoArgs{X: tk, S: "x"}
	}, replies)
	for tk, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", tk, err)
		}
	}
	if len(times) != tasks {
		t.Fatalf("got %d task times", len(times))
	}
	for i, d := range times {
		if d <= 0 {
			t.Errorf("task %d duration %v", i, d)
		}
	}
	for i := range replies {
		r := replies[i].(*EchoReply)
		if r.X != 2*i {
			t.Errorf("task %d: X = %d", i, r.X)
		}
	}
}

func TestParallelCallsPropagatesError(t *testing.T) {
	p, err := NewLocalPool(2, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	replies := make([]interface{}, 3)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	_, errs := p.Session().ParallelCallsPlacedCtx(nil, 3, func(tk int) int { return tk % 2 }, "Bogus", func(tk int) interface{} { return &EchoArgs{} }, replies)
	for tk, err := range errs {
		if err == nil {
			t.Errorf("task %d: expected error from unknown method", tk)
		}
	}
}

func TestTCPServeAndDial(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&EchoService{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	defer lis.Close()

	p, err := DialPool([]string{lis.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var reply EchoReply
	if err := p.Session().Call(nil, 0, "Echo", &EchoArgs{X: 10, S: "tcp"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.X != 20 || reply.S != "tcptcp" {
		t.Errorf("reply = %+v", reply)
	}
}

func TestDialPoolErrors(t *testing.T) {
	if _, err := DialPool(nil); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := DialPool([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable address accepted")
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	p, err := NewLocalPool(1, func() interface{} { return &EchoService{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var reply EchoReply
	if err := p.Session().Call(nil, 0, "Echo", &EchoArgs{}, &reply); err == nil {
		t.Error("call on closed pool succeeded")
	}
}
