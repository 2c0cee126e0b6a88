package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wire protocol of the pool — the only one: a framed
// rpc.ClientCodec / rpc.ServerCodec pair under net/rpc's call matching.
// Every RPC body implements Wire and is serialized by its hand-written
// encoder into the connection's staging buffer: no per-call encoder
// state, no reflection, zero steady-state allocations in the codec. A
// body that does not implement Wire is an error where it is sent.
//
// Frame layout (both directions, after the handshake):
//
//	uint32 LE  payload length
//	payload:
//	  request:  uvarint seq · string method · flag · body
//	  response: uvarint seq · string method · string error · flag · body
//	flag: 0 = no body · 1 = Wire body
//
// Handshake: 8 bytes each way, "FWB" · '0'+wireVersion · kind · "rpc",
// kind '?' for the client's request (sent first) and '!' for the server's
// ack (its first write), both under Options.handshakeTimeout. The server
// always answers with its own ack and then closes unless the request was
// its own version's; the client turns an ack of another version into
// ErrWireVersion and anything else — silence, a closed connection, bytes
// that are not an ack — into an error naming the ack it expected. A
// mixed-version fleet therefore fails when it connects, in either
// direction, never in the middle of a run.

// wireVersion is the version both handshake messages carry. Bump it when
// any Wire layout changes OR when a worker's answer to the same request
// changes (a worker that orders or elides AlignRef records differently is
// as incompatible as one that shifts a field). internal/assembly pins every
// message's bytes to testdata/wire_v<wireVersion>.golden, so changed
// bytes cannot be re-blessed without touching this constant.
const wireVersion = 9

// ErrWireVersion marks a connect that reached a peer speaking another
// wire version; the wrapping error's text carries both versions.
var ErrWireVersion = errors.New("dist: wire version mismatch")

const handshakeLen = 8

// handshake returns the handshake message of the given kind ('?' or '!').
func handshake(kind byte, version int) string {
	return "FWB" + string([]byte{byte('0' + version), kind}) + "rpc"
}

// wireBufSize sizes the per-connection buffered reader and is the first
// growth step of a frame buffer.
const wireBufSize = 64 << 10

// maxWireFrame bounds a frame payload (defense against corrupt length
// prefixes, not a protocol limit).
const maxWireFrame = 1 << 30

const (
	flagNoBody byte = iota
	flagWire
)

// getWireBuf returns a fresh staging/frame buffer. A codec keeps its two
// for the life of the connection (that reuse is what makes the steady
// state allocation-free) and leaves them to the GC when it closes.
func getWireBuf() []byte { return make([]byte, 0, 4096) }

// appendBody appends the flag byte and encoded body.
func appendBody(dst []byte, body interface{}) ([]byte, error) {
	if body == nil {
		return append(dst, flagNoBody), nil
	}
	w, ok := body.(Wire)
	if !ok {
		return dst, notWireError(body)
	}
	return w.AppendTo(append(dst, flagWire)), nil
}

func notWireError(body interface{}) error {
	return fmt.Errorf("dist: rpc body %T does not implement Wire", body)
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
			return notWireError(body)
		}
		return w.DecodeFrom(src)
	}
	return fmt.Errorf("dist: unknown body flag %d", flag)
}

// readFrame reads one length-prefixed frame into buf (grown as needed)
// and returns the payload view. The length prefix comes from the peer, so
// it is not trusted with memory: a frame larger than the buffer is read
// in steps no larger than what has already arrived (wireBufSize at first),
// so a peer that declares a huge frame and sends nothing costs one step.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:4] // header scratch inside the frame buffer: no escape, no alloc
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, nil, err
	}
	declared := binary.LittleEndian.Uint32(hdr)
	if declared > maxWireFrame {
		return buf, nil, fmt.Errorf("dist: wire frame of %d bytes exceeds limit", declared)
	}
	n := int(declared)
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return buf, nil, err
		}
		return buf, buf, nil
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), wireBufSize))
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return buf, nil, err
		}
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
// conn within timeout and returns the framed codec. On error the caller
// must close conn.
func newWireClientCodec(conn net.Conn, timeout time.Duration) (rpc.ClientCodec, error) {
	if err := clientHandshake(conn, timeout, wireVersion); err != nil {
		return nil, err
	}
	return &wireClientCodec{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, wireBufSize),
		wbuf:    getWireBuf(),
		rbuf:    getWireBuf(),
		methods: make(map[string]string, 8),
	}, nil
}

// clientHandshake sends the request of the given version (wireVersion
// outside tests) and checks the peer's ack.
func clientHandshake(conn net.Conn, timeout time.Duration, version int) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	want := handshake('!', version)
	var ack [handshakeLen]byte
	_, err := io.WriteString(conn, handshake('?', version))
	if err == nil {
		_, err = io.ReadFull(conn, ack[:])
	}
	switch got := string(ack[:]); {
	case err != nil:
		return fmt.Errorf("dist: wire handshake: expected ack %q (wire version %d): %w", want, version, err)
	case got[:3] != want[:3] || got[4:] != want[4:]:
		return fmt.Errorf("dist: wire handshake: expected ack %q (wire version %d), peer answered %q", want, version, got)
	case got != want:
		return fmt.Errorf("dist: wire handshake: peer speaks wire version %d, this build speaks %d: %w", int(got[3])-'0', version, ErrWireVersion)
	}
	return conn.SetDeadline(time.Time{})
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
	// The buffers are left to the GC, never recycled: rpc.Client calls
	// Close while its input goroutine may still be inside
	// ReadResponseHeader (and a sender inside WriteRequest), with no
	// happens-before edge.
	c.closeOnce.Do(func() { c.closeErr = c.conn.Close() })
	return c.closeErr
}

// wireServerCodec implements rpc.ServerCodec over frames and keeps the
// in-flight accounting Server.Shutdown's drain respects: a call counts
// from its request header being read until its response is written. srv
// is nil for in-process (local pool) servers, which have no drain.
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
		// it); shut the connection down to signal that it did.
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
	// be inside ReadRequestHeader.
	var err error
	c.closeOnce.Do(func() {
		if c.srv != nil {
			c.srv.dropConn(c.conn)
		}
		err = c.conn.Close()
	})
	return err
}

// serveConn serves one connection on rpcSrv: the server half of the wire
// handshake within timeout, then frames until the peer hangs up. srv
// (nullable) receives in-flight accounting and connection-drop
// notifications.
func serveConn(rpcSrv *rpc.Server, conn net.Conn, timeout time.Duration, srv *Server) {
	c := newWireServerCodec(conn, bufio.NewReaderSize(conn, wireBufSize), srv)
	if err := serverHandshake(conn, c.br, timeout, wireVersion); err != nil {
		c.Close()
		return
	}
	rpcSrv.ServeCodec(c)
}

// serverHandshake reads the client's request and answers with the ack of
// the given version (wireVersion outside tests) — always, and as the
// connection's first write, so a client of another version learns which
// version it reached. Any request but that version's own is then an error
// (the caller closes).
func serverHandshake(conn net.Conn, br *bufio.Reader, timeout time.Duration, version int) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	var req [handshakeLen]byte
	if _, err := io.ReadFull(br, req[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(conn, handshake('!', version)); err != nil {
		return err
	}
	if string(req[:]) != handshake('?', version) {
		return fmt.Errorf("dist: wire handshake: peer opened with %q", req[:])
	}
	return conn.SetDeadline(time.Time{})
}
