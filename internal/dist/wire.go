package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire is the hand-written binary encoding every RPC body implements:
// AppendTo serializes the value into the caller's buffer (append
// semantics, so staging buffers are reusable) and DecodeFrom rebuilds the
// value from the encoded bytes. Changing what any implementation writes
// is a wire-version change (see wireVersion).
//
// Ownership/aliasing contract: src is a view into the codec's reused
// frame buffer and is INVALID after DecodeFrom returns — implementations
// must copy every byte they keep (sequences, strings, slices). AppendTo
// must not retain dst. See DESIGN.md §10.
type Wire interface {
	AppendTo(dst []byte) []byte
	DecodeFrom(src []byte) error
}

// Ack is the one-byte body of the calls that carry no payload in one
// direction or both: Ping's argument and reply, Unload's reply.
type Ack bool

// AppendTo implements Wire.
func (a *Ack) AppendTo(dst []byte) []byte { return AppendBool(dst, bool(*a)) }

// DecodeFrom implements Wire.
func (a *Ack) DecodeFrom(src []byte) error {
	rd := NewWireReader(src)
	*a = Ack(rd.Bool())
	return rd.Finish()
}

// Append helpers. All use append semantics so encoders can stage into a
// reused buffer with zero steady-state allocations.

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendVarint appends v zigzag-encoded (small magnitudes stay small in
// either sign — the workhorse for delta-encoded id lists).
func AppendVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendFloat32 appends the 4-byte little-endian IEEE bits of f.
func AppendFloat32(dst []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
}

// AppendFloat64 appends the 8-byte little-endian IEEE bits of f.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendBool appends one byte (0 or 1).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a uvarint length followed by the raw bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendLen encodes a slice length with a nil marker so nil and empty
// slices round-trip exactly (reflect.DeepEqual distinguishes them): nil
// encodes as 0, a present slice of length n as n+1.
func AppendLen(dst []byte, n int, present bool) []byte {
	if !present {
		return AppendUvarint(dst, 0)
	}
	return AppendUvarint(dst, uint64(n)+1)
}

// WireReader decodes the primitives appended by the helpers above. Errors
// are sticky: after the first malformed field every subsequent read
// returns a zero value, and Finish reports the first error. This keeps
// DecodeFrom implementations free of per-field error checks.
type WireReader struct {
	buf []byte
	off int
	err error
}

// NewWireReader returns a reader over src.
func NewWireReader(src []byte) WireReader { return WireReader{buf: src} }

func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: wire: truncated or malformed %s at offset %d", what, r.off)
	}
}

// Err returns the first decode error, if any.
func (r *WireReader) Err() error { return r.err }

// Finish returns the first decode error, or an error if unread bytes
// remain (a framing bug or a version mismatch).
func (r *WireReader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("dist: wire: %d trailing byte(s) after decode", len(r.buf)-r.off)
	}
	return nil
}

// Uvarint reads an unsigned LEB128 value.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed value.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// take returns the next n raw bytes as a view into the frame buffer. The
// view is only valid during DecodeFrom — copy anything retained.
func (r *WireReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Float32 reads 4 little-endian IEEE bytes.
func (r *WireReader) Float32() float32 {
	b := r.take(4, "float32")
	if b == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// Float64 reads 8 little-endian IEEE bytes.
func (r *WireReader) Float64() float64 {
	b := r.take(8, "float64")
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads one byte as a bool.
func (r *WireReader) Bool() bool {
	b := r.take(1, "bool")
	return b != nil && b[0] != 0
}

// String reads a uvarint-length-prefixed string (copied — strings are
// immutable, so the copy is the conversion itself).
func (r *WireReader) String() string {
	n := r.Uvarint()
	b := r.take(int(n), "string")
	return string(b)
}

// Bytes returns a length-n view into the frame buffer (no copy; see the
// aliasing contract on Wire).
func (r *WireReader) Bytes(n int) []byte { return r.take(n, "bytes") }

// Byte reads one raw byte.
func (r *WireReader) Byte() byte {
	b := r.take(1, "byte")
	if b == nil {
		return 0
	}
	return b[0]
}

// Rest returns the unread remainder as a view into the frame buffer (the
// codec uses it to hand body bytes to DecodeFrom).
func (r *WireReader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Unread returns the unread remainder as a view WITHOUT consuming it.
// Decoders embedding an externally-framed format (e.g. dna packing) pair
// it with Skip to account for what the external decoder consumed.
func (r *WireReader) Unread() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:]
}

// Remaining returns the number of unread bytes (0 once errored).
func (r *WireReader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Skip advances n bytes.
func (r *WireReader) Skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("skip")
		return
	}
	r.off += n
}

// Fail records err as the reader's sticky error (for decoders that
// delegate to external formats).
func (r *WireReader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Len decodes a length written by AppendLen: present=false means the
// slice was nil. Each encoded element occupies at least one byte, so a
// count beyond the remaining bytes is corruption — failing here (rather
// than returning a huge or int-overflowed count) protects every
// slice-decoding caller from unbounded or negative allocations.
func (r *WireReader) Len() (n int, present bool) {
	v := r.Uvarint()
	if v == 0 {
		return 0, false
	}
	v--
	if v > uint64(r.Remaining()) {
		r.fail("slice length")
		return 0, false
	}
	return int(v), true
}

// AppendInt32sDelta appends ids delta-zigzag encoded (sorted lists
// collapse to ~1 byte per id; arbitrary order still round-trips).
func AppendInt32sDelta(dst []byte, ids []int32) []byte {
	dst = AppendLen(dst, len(ids), ids != nil)
	prev := int64(0)
	for _, id := range ids {
		dst = AppendVarint(dst, int64(id)-prev)
		prev = int64(id)
	}
	return dst
}

// Int32sDelta decodes a list written by AppendInt32sDelta.
func (r *WireReader) Int32sDelta() []int32 {
	n, present := r.Len()
	if !present {
		return nil
	}
	if n > r.Remaining() { // each element is at least one byte
		r.fail("int32 list length")
		return nil
	}
	out := make([]int32, n)
	prev := int64(0)
	for i := range out {
		prev += r.Varint()
		out[i] = int32(prev)
	}
	return out
}
