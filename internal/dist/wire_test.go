package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestWirePrimitivesRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, math.MaxUint64)
	buf = AppendVarint(buf, -1)
	buf = AppendVarint(buf, math.MinInt64)
	buf = AppendVarint(buf, math.MaxInt64)
	buf = AppendFloat32(buf, -1.5)
	buf = AppendFloat64(buf, 2.25)
	buf = AppendBool(buf, true)
	buf = AppendString(buf, "héllo")
	buf = AppendLen(buf, 0, false) // nil slice
	buf = AppendLen(buf, 0, true)  // empty slice
	buf = AppendInt32sDelta(buf, nil)
	buf = AppendInt32sDelta(buf, []int32{})
	buf = AppendInt32sDelta(buf, []int32{5, 2, math.MaxInt32, math.MinInt32, 0})

	rd := NewWireReader(buf)
	if v := rd.Uvarint(); v != 0 {
		t.Fatalf("uvarint 0 = %d", v)
	}
	if v := rd.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("max uvarint = %d", v)
	}
	if v := rd.Varint(); v != -1 {
		t.Fatalf("varint -1 = %d", v)
	}
	if v := rd.Varint(); v != math.MinInt64 {
		t.Fatalf("min varint = %d", v)
	}
	if v := rd.Varint(); v != math.MaxInt64 {
		t.Fatalf("max varint = %d", v)
	}
	if v := rd.Float32(); v != -1.5 {
		t.Fatalf("float32 = %v", v)
	}
	if v := rd.Float64(); v != 2.25 {
		t.Fatalf("float64 = %v", v)
	}
	if !rd.Bool() {
		t.Fatal("bool = false")
	}
	if s := rd.String(); s != "héllo" {
		t.Fatalf("string = %q", s)
	}
	if n, present := rd.Len(); n != 0 || present {
		t.Fatalf("nil len = (%d, %v)", n, present)
	}
	if n, present := rd.Len(); n != 0 || !present {
		t.Fatalf("empty len = (%d, %v)", n, present)
	}
	if ids := rd.Int32sDelta(); ids != nil {
		t.Fatalf("nil int32s = %v", ids)
	}
	if ids := rd.Int32sDelta(); ids == nil || len(ids) != 0 {
		t.Fatalf("empty int32s = %v", ids)
	}
	want := []int32{5, 2, math.MaxInt32, math.MinInt32, 0}
	if ids := rd.Int32sDelta(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("int32s = %v, want %v", ids, want)
	}
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWireReaderTruncated(t *testing.T) {
	full := AppendInt32sDelta(AppendString(nil, "method"), []int32{1, 2, 3})
	for cut := 0; cut < len(full); cut++ {
		rd := NewWireReader(full[:cut])
		_ = rd.String()
		rd.Int32sDelta()
		if rd.Finish() == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(full))
		}
	}
	// Trailing garbage is an error too.
	rd := NewWireReader(append(AppendString(nil, "m"), 0xff))
	_ = rd.String()
	if rd.Finish() == nil {
		t.Fatal("trailing byte not reported")
	}
}

// TestWireInt32sDeltaCorruptLength checks the decoder refuses to allocate
// a huge slice from a corrupt length prefix: each element needs at least
// one byte, so the claimed count is bounded by the remaining payload.
func TestWireInt32sDeltaCorruptLength(t *testing.T) {
	buf := AppendUvarint(nil, 1<<40) // claims ~2^40 elements
	buf = append(buf, 1, 2, 3)
	rd := NewWireReader(buf)
	if ids := rd.Int32sDelta(); ids != nil {
		t.Fatalf("corrupt list decoded to %d ids", len(ids))
	}
	if rd.Err() == nil {
		t.Fatal("corrupt length not reported")
	}
}

func TestWireInt32sDeltaRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		ids := make([]int32, rng.Intn(64))
		for j := range ids {
			ids[j] = int32(rng.Uint32()) // arbitrary order and sign
		}
		got := func() []int32 {
			rd := NewWireReader(AppendInt32sDelta(nil, ids))
			out := rd.Int32sDelta()
			if err := rd.Finish(); err != nil {
				t.Fatal(err)
			}
			return out
		}()
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("round trip %v -> %v", ids, got)
		}
	}
}

// WireEchoArgs/WireEchoReply carry a delta-coded id list, exercising a
// non-trivial Wire body end to end.
type WireEchoArgs struct {
	IDs []int32
	Tag string
}

func (a *WireEchoArgs) AppendTo(dst []byte) []byte {
	dst = AppendInt32sDelta(dst, a.IDs)
	return AppendString(dst, a.Tag)
}

func (a *WireEchoArgs) DecodeFrom(src []byte) error {
	rd := NewWireReader(src)
	a.IDs = rd.Int32sDelta()
	a.Tag = rd.String()
	return rd.Finish()
}

type WireEchoReply struct {
	Sum int64
	Tag string
}

func (r *WireEchoReply) AppendTo(dst []byte) []byte {
	dst = AppendVarint(dst, r.Sum)
	return AppendString(dst, r.Tag)
}

func (r *WireEchoReply) DecodeFrom(src []byte) error {
	rd := NewWireReader(src)
	r.Sum = rd.Varint()
	r.Tag = rd.String()
	return rd.Finish()
}

// MixedService serves two differently-shaped Wire methods and a failing
// method, covering the body and the bodyless-error response shapes.
type MixedService struct{}

func (MixedService) WireEcho(args *WireEchoArgs, reply *WireEchoReply) error {
	for _, id := range args.IDs {
		reply.Sum += int64(id)
	}
	reply.Tag = args.Tag + args.Tag
	return nil
}

func (MixedService) Echo(args *EchoArgs, reply *EchoReply) error {
	reply.X = args.X * 2
	reply.S = args.S + args.S
	return nil
}

func (MixedService) Fail(args *EchoArgs, reply *EchoReply) error {
	return errors.New("deliberate failure")
}

func (MixedService) Ping(args, reply *Ack) error { return nil }

func TestWireCodecRoundTrip(t *testing.T) {
	p, err := NewLocalPoolOpts(1, func() interface{} { return MixedService{} }, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wr WireEchoReply
	if err := p.Call(0, "WireEcho", &WireEchoArgs{IDs: []int32{3, 1, 4}, Tag: "ab"}, &wr); err != nil {
		t.Fatalf("WireEcho call: %v", err)
	}
	if wr.Sum != 8 || wr.Tag != "abab" {
		t.Fatalf("WireEcho reply %+v", wr)
	}

	var er EchoReply
	if err := p.Call(0, "Echo", &EchoArgs{X: 21, S: "x"}, &er); err != nil {
		t.Fatalf("Echo call: %v", err)
	}
	if er.X != 42 || er.S != "xx" {
		t.Fatalf("Echo reply %+v", er)
	}

	// Application errors ride the response error string with no body and
	// must not evict the worker.
	err = p.Call(0, "Fail", &EchoArgs{}, &er)
	if err == nil || err.Error() != "deliberate failure" {
		t.Fatalf("Fail call error = %v", err)
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d after application error", n)
	}
}

// plainArgs is an RPC body without a Wire encoding.
type plainArgs struct{ X int }

// TestWireBodyMustImplementWire: a body that is not a Wire is refused
// where it is sent, with an error naming its type — in either position —
// and the refusal is the caller's bug, so it must not cost the worker its
// connection.
func TestWireBodyMustImplementWire(t *testing.T) {
	p, err := NewLocalPoolOpts(1, func() interface{} { return MixedService{} }, Options{MaxFailures: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var er EchoReply
	var plain plainArgs
	for name, err := range map[string]error{
		"args":  p.Call(0, "Echo", &plainArgs{X: 1}, &er),
		"reply": p.Call(0, "Echo", &EchoArgs{X: 1}, &plain),
	} {
		if err == nil || !strings.Contains(err.Error(), "*dist.plainArgs does not implement Wire") {
			t.Errorf("non-Wire %s: error = %v, want one naming *dist.plainArgs", name, err)
		}
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d after refused bodies, want 1", n)
	}
	if err := p.Call(0, "Echo", &EchoArgs{X: 2}, &er); err != nil || er.X != 4 {
		t.Fatalf("call after refused bodies: reply %+v, err %v", er, err)
	}
}

// discardConn is the write half of a net.Conn for encode-only tests; the
// embedded nil Conn panics on anything else, which would mark a test bug.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestWireCodecZeroAlloc pins the tentpole's allocation target: in steady
// state the codec itself — framing, headers, method-name interning —
// allocates nothing on either the request or the response path.
func TestWireCodecZeroAlloc(t *testing.T) {
	c := &wireClientCodec{
		conn:    discardConn{},
		wbuf:    getWireBuf(),
		rbuf:    getWireBuf(),
		methods: make(map[string]string, 8),
	}
	req := rpc.Request{ServiceMethod: "FocusWorker.TrimTransitive", Seq: 1}
	body := &WireEchoArgs{IDs: []int32{10, 20, 30, 40}, Tag: "phase"}
	if err := c.WriteRequest(&req, body); err != nil { // warm the staging buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		req.Seq++
		if err := c.WriteRequest(&req, body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WriteRequest allocates %.1f objects/call, want 0", allocs)
	}

	// One canned success response, replayed through the read path.
	frame := append([]byte(nil), 0, 0, 0, 0)
	frame = AppendUvarint(frame, 7)
	frame = AppendString(frame, "FocusWorker.TrimTransitive")
	frame = AppendString(frame, "")
	frame = append(frame, flagNoBody)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))

	rdr := bytes.NewReader(frame)
	br := bufio.NewReaderSize(rdr, 512)
	c.br = br
	var resp rpc.Response
	readOne := func() {
		rdr.Reset(frame)
		br.Reset(rdr)
		if err := c.ReadResponseHeader(&resp); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadResponseBody(nil); err != nil {
			t.Fatal(err)
		}
	}
	readOne() // warm the frame buffer and the method intern table
	if allocs := testing.AllocsPerRun(200, readOne); allocs != 0 {
		t.Fatalf("ReadResponse allocates %.1f objects/call, want 0", allocs)
	}
	if resp.ServiceMethod != "FocusWorker.TrimTransitive" || resp.Seq != 7 || resp.Error != "" {
		t.Fatalf("decoded response %+v", resp)
	}
}

// TestWireShutdownDrain: the server codec counts a call as in flight from
// request header to response write, so Server.Shutdown's grace period
// drains active calls.
func TestWireShutdownDrain(t *testing.T) {
	srv, err := NewServer(SlowService{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	p, err := DialPoolOpts([]string{lis.Addr().String()}, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var reply EchoReply
	called := make(chan error, 1)
	go func() { called <- p.Call(0, "Echo", &EchoArgs{X: 5}, &reply) }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.ActiveCalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.ActiveCalls() == 0 {
		t.Fatal("call never became active on the server")
	}
	srv.Shutdown(2 * time.Second)
	if err := <-called; err != nil {
		t.Fatalf("in-flight call killed by graceful shutdown: %v", err)
	}
	if reply.X != 10 {
		t.Fatalf("reply after drain: %+v", reply)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// serveTCP runs a dist.Server for service on a loopback listener.
func serveTCP(t *testing.T, service interface{}) (addr string) {
	t.Helper()
	srv, err := NewServer(service)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	return lis.Addr().String()
}

// acceptEach hands every connection accepted on a fresh loopback listener
// to handle (which owns and closes it).
func acceptEach(t *testing.T, handle func(net.Conn)) (addr string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return lis.Addr().String()
}

// wantVersionMismatch checks err is the typed version error, names both
// versions, and arrived well inside the handshake bound (dialTimeout).
func wantVersionMismatch(t *testing.T, err error, elapsed time.Duration, peer, mine int) {
	t.Helper()
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("error = %v, want ErrWireVersion", err)
	}
	text := fmt.Sprintf("peer speaks wire version %d, this build speaks %d", peer, mine)
	if !strings.Contains(err.Error(), text) {
		t.Fatalf("error %q does not say %q", err, text)
	}
	if elapsed > dialTimeout/4 {
		t.Fatalf("version mismatch took %v to surface (handshake bound %v)", elapsed, dialTimeout)
	}
}

// TestWireVersionNewerServer: this build's pool against a worker one
// wire version ahead fails at connect with ErrWireVersion — no waiting
// out a timeout, no retry under another protocol.
func TestWireVersionNewerServer(t *testing.T) {
	addr := acceptEach(t, func(conn net.Conn) {
		defer conn.Close()
		serverHandshake(conn, bufio.NewReader(conn), time.Second, wireVersion+1)
	})
	start := time.Now()
	p, err := DialPoolOpts([]string{addr}, Options{Logf: t.Logf})
	if err == nil {
		p.Close()
		t.Fatal("connected to a worker of another wire version")
	}
	wantVersionMismatch(t, err, time.Since(start), wireVersion+1, wireVersion)

	start = time.Now()
	err = HealthCheck(addr, 0)
	wantVersionMismatch(t, err, time.Since(start), wireVersion+1, wireVersion)
}

// TestWireVersionOlderClient: a master one wire version behind is told
// which version it reached (the ack is always this build's own) and is
// then hung up on, so the mismatch is typed on its side too.
func TestWireVersionOlderClient(t *testing.T) {
	addr := serveTCP(t, MixedService{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	err = clientHandshake(conn, dialTimeout, wireVersion-1)
	wantVersionMismatch(t, err, time.Since(start), wireVersion, wireVersion-1)

	conn.SetReadDeadline(time.Now().Add(dialTimeout / 4))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the mismatched handshake: read %d byte(s), err %v; want the server to close", n, err)
	}
	// The same listener serves this version: the check above is not vacuous.
	if err := HealthCheck(addr, 0); err != nil {
		t.Fatalf("same-version healthcheck: %v", err)
	}
}

// TestWireGobClientClosedPromptly: a stock net/rpc (gob) client — a master
// from before the wire protocol — gets its connection closed as soon as
// its first request arrives, not a server blocked on a codec it will
// never parse.
func TestWireGobClientClosedPromptly(t *testing.T) {
	conn, err := net.Dial("tcp", serveTCP(t, MixedService{}))
	if err != nil {
		t.Fatal(err)
	}
	client := rpc.NewClient(conn)
	defer client.Close()
	var reply EchoReply
	call := client.Go(ServiceName+".Echo", &EchoArgs{X: 1}, &reply, nil)
	select {
	case <-call.Done:
		if call.Error == nil {
			t.Fatal("gob call against the wire server succeeded")
		}
	case <-time.After(dialTimeout / 4):
		t.Fatal("gob client left hanging by the wire server")
	}
}

// TestWireSilentPeerFailsWithinBound: a peer that accepts and never
// answers fails the connect after min(CallTimeout, dialTimeout) with an
// error naming the handshake that was expected; a client that connects
// and never speaks is dropped by the server on the same terms.
func TestWireSilentPeerFailsWithinBound(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := acceptEach(t, func(conn net.Conn) {
		<-release
		conn.Close()
	})
	const bound = 150 * time.Millisecond
	start := time.Now()
	p, err := DialPoolOpts([]string{addr}, Options{CallTimeout: bound, Logf: t.Logf})
	elapsed := time.Since(start)
	if err == nil {
		p.Close()
		t.Fatal("connected to a silent peer")
	}
	if elapsed < bound || elapsed > dialTimeout/2 {
		t.Fatalf("silent peer failed after %v, want about %v", elapsed, bound)
	}
	if want := fmt.Sprintf("expected ack %q (wire version %d)", handshake('!', wireVersion), wireVersion); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the expected handshake %q", err, want)
	}
	if errors.Is(err, ErrWireVersion) {
		t.Fatalf("silence reported as a version mismatch: %v", err)
	}

	cli, srv := net.Pipe()
	defer cli.Close()
	start = time.Now()
	if err := serverHandshake(srv, bufio.NewReader(srv), bound, wireVersion); err == nil {
		t.Fatal("server completed a handshake with a silent client")
	}
	if elapsed := time.Since(start); elapsed < bound || elapsed > dialTimeout/2 {
		t.Fatalf("silent client dropped after %v, want about %v", elapsed, bound)
	}
}

// TestWireGarbageAckNamed: bytes that are not an ack are reported as what
// they are, next to what was expected.
func TestWireGarbageAckNamed(t *testing.T) {
	addr := acceptEach(t, func(conn net.Conn) {
		defer conn.Close()
		io.ReadFull(conn, make([]byte, handshakeLen))
		io.WriteString(conn, "HTTP/1.1 400")
	})
	_, err := DialPoolOpts([]string{addr}, Options{Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), `peer answered "HTTP/1.1"`) ||
		!strings.Contains(err.Error(), fmt.Sprintf("wire version %d", wireVersion)) || errors.Is(err, ErrWireVersion) {
		t.Fatalf("garbage ack: error = %v", err)
	}
}

// TestWireFrameOversizedHeader: the length prefix is the peer's claim, not
// a fact — four bytes declaring a ~1 GiB frame followed by EOF must cost
// one growth step, not the declared size.
func TestWireFrameOversizedHeader(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0x3f}
	if n := binary.LittleEndian.Uint32(hdr); n > maxWireFrame || n < maxWireFrame-1 {
		t.Fatalf("header declares %d bytes; the test wants the largest accepted frame", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf, payload, err := readFrame(bytes.NewReader(hdr), getWireBuf())
	runtime.ReadMemStats(&after)
	if err == nil || payload != nil {
		t.Fatalf("truncated giant frame: payload %d bytes, err %v", len(payload), err)
	}
	if cap(buf) > 2*wireBufSize {
		t.Fatalf("frame buffer grew to %d bytes on a peer that sent 4", cap(buf))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*wireBufSize {
		t.Fatalf("readFrame allocated %d bytes on a peer that sent 4", got)
	}

	// A frame larger than the buffer that does arrive is read whole.
	big := make([]byte, 5*wireBufSize+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	framed := append(binary.LittleEndian.AppendUint32(nil, uint32(len(big))), big...)
	_, payload, err = readFrame(bytes.NewReader(framed), getWireBuf())
	if err != nil || !bytes.Equal(payload, big) {
		t.Fatalf("multi-step frame: %d bytes, err %v", len(payload), err)
	}
}

// TestWireChaosHungWorkerReschedules re-runs the rescheduling proof with
// the handshake in the fault window (FirstSafe lets the ack through, then
// every response write on worker 0 wedges), this time under a live,
// deadline-bearing context and a retry budget: a hung worker's call
// timeout must still reschedule its task on the healthy worker, and must
// not be mistaken for the caller's own cancellation.
func TestWireChaosHungWorkerReschedules(t *testing.T) {
	hang := ChaosConfig{Seed: 11, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	p, err := NewLocalChaosPool(2, func() interface{} { return &EchoService{} },
		Options{CallTimeout: 150 * time.Millisecond, MaxFailures: 1, Logf: t.Logf},
		func(w int) *ChaosConfig {
			if w == 0 {
				return &hang
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const tasks = 6
	replies := make([]interface{}, tasks)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	if _, _, err := p.ParallelCallsCtx(ctx, tasks, "Echo", func(tk int) interface{} {
		return &EchoArgs{X: tk, S: "x"}
	}, replies); err != nil {
		t.Fatalf("parallel calls with one hung worker: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("context expired before the calls finished: %v", ctx.Err())
	}
	for i := range replies {
		if r := replies[i].(*EchoReply); r.X != 2*i {
			t.Errorf("task %d: X = %d, want %d", i, r.X, 2*i)
		}
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d, want 1", n)
	}
}

// TestWireChaosLatencyJitter: random per-write delays must not corrupt
// framing — every call still answers correctly.
func TestWireChaosLatencyJitter(t *testing.T) {
	jitter := ChaosConfig{Seed: 3, LatencyProb: 1, MaxLatency: 3 * time.Millisecond}
	p, err := NewLocalChaosPool(2, func() interface{} { return MixedService{} },
		Options{Logf: t.Logf},
		func(w int) *ChaosConfig { return &jitter })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 20; i++ {
		var wr WireEchoReply
		if err := p.Call(i%2, "WireEcho", &WireEchoArgs{IDs: []int32{int32(i), 1}, Tag: "j"}, &wr); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if wr.Sum != int64(i)+1 {
			t.Fatalf("call %d: sum %d", i, wr.Sum)
		}
	}
}
