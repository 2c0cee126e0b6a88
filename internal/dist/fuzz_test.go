package dist

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWireReader drives a WireReader through an op-scripted decode of
// arbitrary bytes: whatever the input, every primitive reader must return
// without panicking, allocations must stay bounded by the input size
// (take/Int32sDelta reject lengths beyond the remaining bytes), and the
// sticky error state must keep later reads inert.
func FuzzWireReader(f *testing.F) {
	// A valid mixed-primitive encoding with the op script that reads it
	// back, plus degenerate seeds.
	var enc []byte
	enc = AppendUvarint(enc, 300)
	enc = AppendVarint(enc, -7)
	enc = AppendBool(enc, true)
	enc = AppendString(enc, "read-42")
	enc = AppendFloat32(enc, 0.97)
	enc = AppendFloat64(enc, -1.5)
	enc = AppendLen(enc, 3, true)
	enc = AppendInt32sDelta(enc, []int32{5, 9, 1000})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, enc)
	f.Add([]byte{7, 7, 7}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add([]byte{3}, []byte{0x80})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, ops []byte, data []byte) {
		rd := NewWireReader(data)
		for _, op := range ops {
			switch op % 10 {
			case 0:
				rd.Uvarint()
			case 1:
				rd.Varint()
			case 2:
				rd.Bool()
			case 3:
				_ = rd.String()
			case 4:
				rd.Float32()
			case 5:
				rd.Float64()
			case 6:
				rd.Len()
			case 7:
				rd.Int32sDelta()
			case 8:
				rd.Byte()
			case 9:
				rd.Bytes(int(op) / 10)
			}
		}
		if rd.Remaining() > len(data) {
			t.Fatalf("Remaining %d > input %d", rd.Remaining(), len(data))
		}
		rd.Finish()
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it must
// error on short or oversized frames without panicking, and a frame it
// accepts must echo the framed payload exactly.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		return append(hdr, payload...)
	}
	f.Add(frame([]byte("hello")))
	f.Add(append(frame(nil), frame([]byte{1, 2, 3})...))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // length beyond maxWireFrame
	f.Add([]byte{5, 0, 0, 0, 'x'})        // truncated payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x3F}) // largest accepted length, no payload: one growth step
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		consumed := 0
		for i := 0; i < 4; i++ {
			payload, nbuf, err := readFrame(r, buf)
			if err != nil {
				return
			}
			buf = nbuf
			want := data[consumed+4 : consumed+4+len(payload)]
			if !bytes.Equal(payload, want) {
				t.Fatalf("frame %d: payload %x != framed bytes %x", i, payload, want)
			}
			consumed += 4 + len(payload)
		}
	})
}
