package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
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

// WireEchoArgs/WireEchoReply implement Wire, exercising the flagWire body
// path end to end; EchoArgs/EchoReply (plain gob structs) exercise the
// per-message gob fallback inside the binary framing.
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

// MixedService serves a Wire-typed method, a gob-typed method, and a
// failing method, covering all three response shapes of the binary codec.
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

func TestWireCodecRoundTrip(t *testing.T) {
	p, err := NewLocalPoolOpts(1, func() interface{} { return MixedService{} },
		Options{Codec: CodecBinary, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wr WireEchoReply
	if err := p.Call(0, "WireEcho", &WireEchoArgs{IDs: []int32{3, 1, 4}, Tag: "ab"}, &wr); err != nil {
		t.Fatalf("Wire body call: %v", err)
	}
	if wr.Sum != 8 || wr.Tag != "abab" {
		t.Fatalf("WireEcho reply %+v", wr)
	}

	var gr EchoReply
	if err := p.Call(0, "Echo", &EchoArgs{X: 21, S: "x"}, &gr); err != nil {
		t.Fatalf("gob-fallback body call: %v", err)
	}
	if gr.X != 42 || gr.S != "xx" {
		t.Fatalf("Echo reply %+v", gr)
	}

	// Application errors ride the response error string with no body and
	// must not evict the worker.
	err = p.Call(0, "Fail", &EchoArgs{}, &gr)
	if err == nil || err.Error() != "deliberate failure" {
		t.Fatalf("Fail call error = %v", err)
	}
	if n := p.NumHealthy(); n != 1 {
		t.Fatalf("NumHealthy = %d after application error", n)
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

// TestWireShutdownDrain is the satellite-b regression: the binary server
// codec must keep the same in-flight accounting contract as the gob
// codec, so Server.Shutdown's grace period still drains active calls.
func TestWireShutdownDrain(t *testing.T) {
	srv, err := NewServerOpts(SlowService{}, Options{WireBufSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	p, err := DialPoolOpts([]string{lis.Addr().String()}, Options{Codec: CodecBinary, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var reply EchoReply
	call := p.Go(0, "Echo", &EchoArgs{X: 5}, &reply)
	deadline := time.Now().Add(2 * time.Second)
	for srv.ActiveCalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.ActiveCalls() == 0 {
		t.Fatal("call never became active on the server")
	}
	srv.Shutdown(2 * time.Second)
	<-call.Done
	if call.Error != nil {
		t.Fatalf("in-flight call killed by graceful shutdown: %v", call.Error)
	}
	if reply.X != 10 {
		t.Fatalf("reply after drain: %+v", reply)
	}
	if err := <-served; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestWireServerSniffsBothCodecs drives one sniffing listener from a
// binary pool and a gob pool at the same time.
func TestWireServerSniffsBothCodecs(t *testing.T) {
	srv, err := NewServer(MixedService{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Shutdown(time.Second)

	addr := lis.Addr().String()
	for _, tc := range []struct {
		name  string
		codec Codec
	}{{"binary", CodecBinary}, {"gob", CodecGob}} {
		p, err := DialPoolOpts([]string{addr}, Options{Codec: tc.codec, Logf: t.Logf})
		if err != nil {
			t.Fatalf("%s dial: %v", tc.name, err)
		}
		var wr WireEchoReply
		if err := p.Call(0, "WireEcho", &WireEchoArgs{IDs: []int32{1, 2}, Tag: "t"}, &wr); err != nil {
			t.Fatalf("%s WireEcho: %v", tc.name, err)
		}
		if wr.Sum != 3 || wr.Tag != "tt" {
			t.Fatalf("%s WireEcho reply %+v", tc.name, wr)
		}
		p.Close()
	}
}

// TestWireStaleMagicNotAcked: a client built for the previous wire schema
// (it opens with "FWB1?rpc") must not be acked — its Config encodings
// differ, so it has to fail the handshake (and fall back to gob under
// CodecAuto) rather than have shifted bytes decoded. The current magic on
// the same listener is acked, so the check is not vacuous.
func TestWireStaleMagicNotAcked(t *testing.T) {
	srv, err := NewServer(MixedService{})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Shutdown(time.Second)

	open := func(magic string) (string, error) {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, magic); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		var ack [len(wireMagicAck)]byte
		n, err := io.ReadFull(conn, ack[:])
		return string(ack[:n]), err
	}
	if got, err := open(wireMagicReq); err != nil || got != wireMagicAck {
		t.Fatalf("current magic: answer %q, err %v; want %q", got, err, wireMagicAck)
	}
	if got, err := open("FWB1?rpc"); err == nil {
		t.Fatalf("FWB1 opener was answered %q; want no ack", got)
	}
}

// gobOnlyServer emulates an old worker build: a plain net/rpc gob server
// with no knowledge of the wire handshake.
func gobOnlyServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, MixedService{}); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return lis.Addr().String(), func() { lis.Close() }
}

// TestWireGobFallbackSticky: a CodecAuto pool probing an old gob-only
// worker gets no handshake ack (the peer reads the magic as a gob length
// prefix and blocks), times out, redials with gob, and remembers the
// downgrade for reconnects.
func TestWireGobFallbackSticky(t *testing.T) {
	addr, stop := gobOnlyServer(t)
	defer stop()
	p, err := DialPoolOpts([]string{addr}, Options{HandshakeTimeout: 200 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("CodecAuto dial against gob-only worker: %v", err)
	}
	defer p.Close()
	var reply EchoReply
	if err := p.Call(0, "Echo", &EchoArgs{X: 4, S: "y"}, &reply); err != nil {
		t.Fatalf("call after fallback: %v", err)
	}
	if reply.X != 8 || reply.S != "yy" {
		t.Fatalf("reply %+v", reply)
	}
	w := p.workers[0]
	w.mu.Lock()
	sticky := w.gobOnly
	w.mu.Unlock()
	if !sticky {
		t.Fatal("fallback not recorded as sticky gobOnly")
	}
	// A sticky reconnect goes straight to gob — no handshake timeout wait.
	start := time.Now()
	client, err := p.connectWorker(w)
	if err != nil {
		t.Fatalf("sticky reconnect: %v", err)
	}
	client.Close()
	if el := time.Since(start); el >= 200*time.Millisecond {
		t.Fatalf("sticky reconnect waited out the handshake timeout (%v)", el)
	}
}

// TestWireBinaryRequiredFails: CodecBinary treats a failed handshake as a
// connect error instead of downgrading.
func TestWireBinaryRequiredFails(t *testing.T) {
	addr, stop := gobOnlyServer(t)
	defer stop()
	_, err := DialPoolOpts([]string{addr},
		Options{Codec: CodecBinary, HandshakeTimeout: 150 * time.Millisecond, Logf: t.Logf})
	if err == nil {
		t.Fatal("CodecBinary connected to a gob-only worker")
	}
}

// TestWireChaosHungWorkerReschedules re-runs the rescheduling proof under
// the explicitly-binary codec: FirstSafe lets the handshake ack through,
// then every response write on worker 0 wedges.
func TestWireChaosHungWorkerReschedules(t *testing.T) {
	hang := ChaosConfig{Seed: 11, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	p, err := NewLocalChaosPool(2, func() interface{} { return &EchoService{} },
		Options{Codec: CodecBinary, CallTimeout: 150 * time.Millisecond, MaxFailures: 1, Logf: t.Logf},
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
	const tasks = 6
	replies := make([]interface{}, tasks)
	for i := range replies {
		replies[i] = &EchoReply{}
	}
	if _, err := p.ParallelCalls(tasks, "Echo", func(tk int) interface{} {
		return &EchoArgs{X: tk, S: "x"}
	}, replies); err != nil {
		t.Fatalf("parallel calls with one hung worker: %v", err)
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
// framing — every call still answers correctly under the binary codec.
func TestWireChaosLatencyJitter(t *testing.T) {
	jitter := ChaosConfig{Seed: 3, LatencyProb: 1, MaxLatency: 3 * time.Millisecond}
	p, err := NewLocalChaosPool(2, func() interface{} { return MixedService{} },
		Options{Codec: CodecBinary, Logf: t.Logf},
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
