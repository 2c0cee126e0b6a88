package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the binary wire protocol of the pool: a framed
// rpc.ClientCodec / rpc.ServerCodec pair that replaces net/rpc's
// reflective gob codec on the master↔worker hot path. Payload types that
// implement Wire (the assembly subgraph/phase/delta types, the overlap
// AlignPair types) are serialized by their hand-written encoders into a
// pooled staging buffer — no per-call encoder state, no reflection, zero
// steady-state allocations in the codec itself; every other type rides a
// self-contained per-message gob fallback, so Ping, Unload and any future
// method keep working unchanged.
//
// Frame layout (both directions, after the handshake):
//
//	uint32 LE  payload length
//	payload:
//	  request:  uvarint seq · string method · flag · body
//	  response: uvarint seq · string method · string error · flag · body
//	flag: 0 = no body · 1 = Wire body · 2 = gob body
//
// Handshake: the client opens with the 8-byte magic "FWB2?rpc"; a
// wire-aware server consumes it and answers "FWB2!rpc", after which both
// sides speak frames. The digit is the wire-schema version: it is bumped
// whenever any Wire message's encoding changes, so a peer built for
// another schema is never acked (it looks like a gob-only peer) instead
// of mis-decoding shifted fields. The server sniffs the first 8 bytes of every
// accepted connection, so one listener serves binary and gob clients
// simultaneously (Peek — nothing is consumed on the gob path). A client
// in CodecAuto mode that gets no ack within the handshake timeout (an old
// gob-only worker blocks on the magic: it reads it as a gob length
// prefix) closes the attempt and redials with the gob codec; the
// downgrade is remembered per worker so reconnects skip the probe.
const (
	wireMagicReq = "FWB2?rpc"
	wireMagicAck = "FWB2!rpc"
)

// maxWireFrame bounds a frame payload (defense against corrupt length
// prefixes, not a protocol limit).
const maxWireFrame = 1 << 30

const (
	flagNoBody byte = iota
	flagWire
	flagGob
)

// wireBufPool recycles codec staging/frame buffers across connections
// (reconnect churn, short-lived benchmark pools).
var wireBufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

func getWireBuf() []byte  { return (*wireBufPool.Get().(*[]byte))[:0] }
func putWireBuf(b []byte) { wireBufPool.Put(&b) }

// appendBody appends the flag byte and encoded body.
func appendBody(dst []byte, body interface{}) ([]byte, error) {
	if body == nil {
		return append(dst, flagNoBody), nil
	}
	if w, ok := body.(Wire); ok {
		return w.AppendTo(append(dst, flagWire)), nil
	}
	return appendGobBody(append(dst, flagGob), body)
}

// appendGobBody is the cold fallback, kept out of appendBody so taking
// &dst for the encoder does not make the hot path's buffer escape.
func appendGobBody(dst []byte, body interface{}) ([]byte, error) {
	sw := sliceWriter{&dst}
	if err := gob.NewEncoder(sw).Encode(body); err != nil {
		return dst, err
	}
	return dst, nil
}

// decodeBody decodes a body encoded by appendBody into body (a pointer),
// or discards it when body is nil.
func decodeBody(flag byte, src []byte, body interface{}) error {
	if body == nil {
		return nil
	}
	switch flag {
	case flagNoBody:
		return nil
	case flagWire:
		w, ok := body.(Wire)
		if !ok {
			return fmt.Errorf("dist: wire body for %T, which does not implement Wire", body)
		}
		return w.DecodeFrom(src)
	case flagGob:
		return gob.NewDecoder(bytes.NewReader(src)).Decode(body)
	}
	return fmt.Errorf("dist: unknown body flag %d", flag)
}

// sliceWriter lets a fresh gob encoder append straight into the staging
// buffer (fallback path only).
type sliceWriter struct{ b *[]byte }

func (w sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// readFrame reads one length-prefixed frame into buf (grown as needed)
// and returns the payload view.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:4] // header scratch inside the pooled buffer: no escape, no alloc
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxWireFrame {
		return buf, nil, fmt.Errorf("dist: wire frame of %d bytes exceeds limit", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, nil, err
	}
	return buf, buf, nil
}

// intern returns a canonical string for b, avoiding a per-call string
// allocation for the small recurring method-name set.
func intern(m map[string]string, b []byte) string {
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(m) < 1024 { // defensive bound; the method set is tiny
		m[s] = s
	}
	return s
}

// wireClientCodec implements rpc.ClientCodec over frames. net/rpc
// serializes WriteRequest calls (client.sending) and reads from a single
// input goroutine, so the unsynchronized buffers are single-owner.
type wireClientCodec struct {
	conn    net.Conn
	br      *bufio.Reader
	wbuf    []byte
	rbuf    []byte
	body    []byte // pending response body (view into rbuf)
	flag    byte
	methods map[string]string

	closeOnce sync.Once
	closeErr  error
}

// newWireClientCodec performs the client half of the wire handshake on
// conn within timeout and returns the framed codec. On error the conn is
// left in an undefined protocol state — the caller must close it (and
// redial for a gob fallback).
func newWireClientCodec(conn net.Conn, bufSize int, timeout time.Duration) (rpc.ClientCodec, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, wireMagicReq); err != nil {
		return nil, fmt.Errorf("dist: wire handshake write: %w", err)
	}
	var ack [len(wireMagicAck)]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return nil, fmt.Errorf("dist: wire handshake read: %w", err)
	}
	if string(ack[:]) != wireMagicAck {
		return nil, fmt.Errorf("dist: wire handshake: peer answered %q", ack[:])
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	return &wireClientCodec{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, bufSize),
		wbuf:    getWireBuf(),
		rbuf:    getWireBuf(),
		methods: make(map[string]string, 8),
	}, nil
}

func (c *wireClientCodec) WriteRequest(r *rpc.Request, body interface{}) error {
	buf := append(c.wbuf[:0], 0, 0, 0, 0)
	buf = AppendUvarint(buf, r.Seq)
	buf = AppendString(buf, r.ServiceMethod)
	buf, err := appendBody(buf, body)
	c.wbuf = buf
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	_, err = c.conn.Write(buf)
	return err
}

func (c *wireClientCodec) ReadResponseHeader(r *rpc.Response) error {
	buf, payload, err := readFrame(c.br, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return err
	}
	rd := NewWireReader(payload)
	r.Seq = rd.Uvarint()
	r.ServiceMethod = intern(c.methods, rd.Bytes(int(rd.Uvarint())))
	if n := int(rd.Uvarint()); n > 0 {
		r.Error = string(rd.Bytes(n))
	} else {
		r.Error = ""
	}
	c.flag = rd.Byte()
	c.body = rd.Rest()
	return rd.Err()
}

func (c *wireClientCodec) ReadResponseBody(body interface{}) error {
	return decodeBody(c.flag, c.body, body)
}

func (c *wireClientCodec) Close() error {
	// The buffers are NOT returned to the pool: rpc.Client calls Close
	// while its input goroutine may still be inside ReadResponseHeader
	// (and a sender inside WriteRequest), with no happens-before edge, so
	// recycling here would hand a buffer to the pool while it is still
	// being written. Per-call reuse is what keeps the steady state
	// allocation-free; teardown lets the GC collect them.
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	return c.closeErr
}

// wireServerCodec implements rpc.ServerCodec over frames, with the same
// in-flight accounting contract as the gob countingCodec: a call counts
// from its request header being read until its response is written, the
// window Server.Shutdown's drain respects. srv is nil for in-process
// (local pool) servers, which have no drain.
type wireServerCodec struct {
	conn      io.ReadWriteCloser
	br        *bufio.Reader
	srv       *Server
	wbuf      []byte
	rbuf      []byte
	body      []byte
	flag      byte
	methods   map[string]string
	closeOnce sync.Once
}

func newWireServerCodec(conn io.ReadWriteCloser, br *bufio.Reader, srv *Server) *wireServerCodec {
	return &wireServerCodec{
		conn:    conn,
		br:      br,
		srv:     srv,
		wbuf:    getWireBuf(),
		rbuf:    getWireBuf(),
		methods: make(map[string]string, 8),
	}
}

func (c *wireServerCodec) ReadRequestHeader(r *rpc.Request) error {
	buf, payload, err := readFrame(c.br, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return err
	}
	rd := NewWireReader(payload)
	r.Seq = rd.Uvarint()
	r.ServiceMethod = intern(c.methods, rd.Bytes(int(rd.Uvarint())))
	c.flag = rd.Byte()
	c.body = rd.Rest()
	if err := rd.Err(); err != nil {
		return err
	}
	if c.srv != nil {
		atomic.AddInt64(&c.srv.active, 1)
	}
	return nil
}

func (c *wireServerCodec) ReadRequestBody(body interface{}) error {
	return decodeBody(c.flag, c.body, body)
}

func (c *wireServerCodec) WriteResponse(r *rpc.Response, body interface{}) error {
	if c.srv != nil {
		defer atomic.AddInt64(&c.srv.active, -1)
	}
	if r.Error != "" {
		body = nil // the error string is the payload
	}
	buf := append(c.wbuf[:0], 0, 0, 0, 0)
	buf = AppendUvarint(buf, r.Seq)
	buf = AppendString(buf, r.ServiceMethod)
	buf = AppendString(buf, r.Error)
	buf, err := appendBody(buf, body)
	c.wbuf = buf
	if err != nil {
		// Encoding the body failed (should not happen: the service built
		// it); shut the connection down to signal that it did, matching
		// the gob codec's behaviour.
		c.Close()
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	if _, err := c.conn.Write(buf); err != nil {
		return err
	}
	return nil
}

func (c *wireServerCodec) Close() error {
	// Like the client codec, Close leaves the buffers to the GC: the
	// WriteResponse error path closes the codec while the read loop may
	// be inside ReadRequestHeader, so recycling rbuf here would race.
	var err error
	c.closeOnce.Do(func() {
		if c.srv != nil {
			c.srv.dropConn(c.conn)
		}
		err = c.conn.Close()
	})
	return err
}

// sniffWire reports whether the connection behind br opens with the wire
// magic, consuming it if so (and nothing otherwise).
func sniffWire(br *bufio.Reader) (bool, error) {
	b, err := br.Peek(len(wireMagicReq))
	if err != nil {
		return false, err
	}
	if string(b) != wireMagicReq {
		return false, nil
	}
	if _, err := br.Discard(len(wireMagicReq)); err != nil {
		return false, err
	}
	return true, nil
}

// serveConnSniff serves one connection on rpcSrv, auto-detecting the
// client's codec: wire-magic openings get the binary codec (after the
// ack), anything else gets gob. srv (nullable) receives in-flight
// accounting and connection-drop notifications; wbuf (nullable) is the
// buffered writer the gob codec should use — pooled by the Server,
// allocated fresh for in-process connections.
func serveConnSniff(rpcSrv *rpc.Server, conn net.Conn, bufSize int, srv *Server) {
	br := bufio.NewReaderSize(conn, bufSize)
	isWire, err := sniffWire(br)
	if err != nil {
		if srv != nil {
			srv.dropConn(conn)
		}
		conn.Close()
		return
	}
	if isWire {
		if _, err := io.WriteString(conn, wireMagicAck); err != nil {
			if srv != nil {
				srv.dropConn(conn)
			}
			conn.Close()
			return
		}
		rpcSrv.ServeCodec(newWireServerCodec(conn, br, srv))
		return
	}
	var bw *bufio.Writer
	if srv != nil {
		bw = srv.getWriter(conn)
		defer srv.putWriter(bw) // ServeCodec waits out pending responses
	} else {
		bw = bufio.NewWriterSize(conn, bufSize)
	}
	rpcSrv.ServeCodec(newCountingCodec(conn, br, bw, srv))
}
