package overlap

import (
	"fmt"

	"focus/internal/align"
	"focus/internal/dist"
	"focus/internal/dna"
)

// Binary wire encodings (dist.Wire) for the distributed alignment
// protocol. Read sequences — the bulk of an AlignRef job — ship 2-bit
// packed (dna.Pack), subsets as their bounds; see DESIGN.md §10 and the
// aliasing contract on dist.Wire (decoders copy, the frame buffer is
// reused).

var (
	_ dist.Wire = (*AlignRefArgs)(nil)
	_ dist.Wire = (*AlignRefReply)(nil)
)

// boundLen rejects element counts larger than the bytes left in the frame
// (each element encodes to ≥1 byte): corrupt lengths become decode errors
// rather than huge allocations.
func boundLen(rd *dist.WireReader, n int) int {
	if n < 0 || n > rd.Remaining() {
		rd.Fail(fmt.Errorf("overlap: wire: %d elements with %d bytes left", n, rd.Remaining()))
		return 0
	}
	return n
}

func appendSeqs(dst []byte, seqs [][]byte) []byte {
	dst = dist.AppendLen(dst, len(seqs), seqs != nil)
	for _, s := range seqs {
		dst = dist.AppendBool(dst, s != nil)
		if s != nil {
			dst = dna.Pack(dst, s)
		}
	}
	return dst
}

func decodeSeqs(rd *dist.WireReader) [][]byte {
	n, present := rd.Len()
	if !present {
		return nil
	}
	seqs := make([][]byte, boundLen(rd, n))
	for i := range seqs {
		if !rd.Bool() {
			continue
		}
		rest := rd.Unread()
		seq, tail, err := dna.Unpack(nil, rest)
		if err != nil {
			rd.Fail(err)
			return seqs
		}
		rd.Skip(len(rest) - len(tail))
		if seq == nil {
			seq = []byte{}
		}
		seqs[i] = seq
	}
	return seqs
}

func appendAlignConfig(dst []byte, c *align.Config) []byte {
	dst = dist.AppendVarint(dst, int64(c.MinLength))
	dst = dist.AppendFloat64(dst, c.MinIdentity)
	dst = dist.AppendVarint(dst, int64(c.Band))
	dst = dist.AppendVarint(dst, int64(c.Scoring.Match))
	dst = dist.AppendVarint(dst, int64(c.Scoring.Mismatch))
	return dist.AppendVarint(dst, int64(c.Scoring.Gap))
}

func decodeAlignConfig(rd *dist.WireReader, c *align.Config) {
	c.MinLength = int(rd.Varint())
	c.MinIdentity = rd.Float64()
	c.Band = int(rd.Varint())
	c.Scoring.Match = int(rd.Varint())
	c.Scoring.Mismatch = int(rd.Varint())
	c.Scoring.Gap = int(rd.Varint())
}

// appendOverlapConfig encodes the fields a worker's records depend on.
// RPCRetries is the master's failover budget and stays home: it decodes
// as zero.
func appendOverlapConfig(dst []byte, c *Config) []byte {
	dst = dist.AppendVarint(dst, int64(c.K))
	dst = dist.AppendVarint(dst, int64(c.Step))
	dst = dist.AppendVarint(dst, int64(c.MinKmerHits))
	dst = dist.AppendVarint(dst, int64(c.MaxOccur))
	return appendAlignConfig(dst, &c.Align)
}

func decodeOverlapConfig(rd *dist.WireReader, c *Config) {
	*c = Config{}
	c.K = int(rd.Varint())
	c.Step = int(rd.Varint())
	c.MinKmerHits = int(rd.Varint())
	c.MaxOccur = int(rd.Varint())
	decodeAlignConfig(rd, &c.Align)
}

// AppendTo implements dist.Wire.
func (a *AlignRefArgs) AppendTo(dst []byte) []byte {
	dst = dist.AppendInt32sDelta(dst, a.Queries)
	dst = dist.AppendVarint(dst, int64(a.RefLo))
	dst = dist.AppendVarint(dst, int64(a.RefHi))
	dst = dist.AppendBool(dst, a.Paired)
	dst = appendSeqs(dst, a.Seqs)
	return appendOverlapConfig(dst, &a.Cfg)
}

// DecodeFrom implements dist.Wire.
func (a *AlignRefArgs) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	a.Queries = rd.Int32sDelta()
	a.RefLo = int32(rd.Varint())
	a.RefHi = int32(rd.Varint())
	a.Paired = rd.Bool()
	a.Seqs = decodeSeqs(&rd)
	decodeOverlapConfig(&rd, &a.Cfg)
	return rd.Finish()
}

// AppendTo implements dist.Wire. Each list leads with its length and the
// number of its records marked mirrorDerived, so that the decoder can
// reserve the room expandMirrors restores the mirrors into; its records
// are delta-coded on A (the lists are sorted by query read) and B against
// A, and Kind is one byte, mirrorDerived included.
func (r *AlignRefReply) AppendTo(dst []byte) []byte {
	dst = dist.AppendLen(dst, len(r.Lists), r.Lists != nil)
	for _, recs := range r.Lists {
		dst = dist.AppendLen(dst, len(recs), recs != nil)
		if recs == nil {
			continue
		}
		derived := 0
		for i := range recs {
			if recs[i].Kind&mirrorDerived != 0 {
				derived++
			}
		}
		dst = dist.AppendUvarint(dst, uint64(derived))
		prevA := int64(0)
		for i := range recs {
			rec := &recs[i]
			dst = dist.AppendVarint(dst, int64(rec.A)-prevA)
			prevA = int64(rec.A)
			dst = dist.AppendVarint(dst, int64(rec.B)-int64(rec.A))
			dst = append(dst, byte(rec.Kind))
			dst = dist.AppendVarint(dst, int64(rec.Len))
			dst = dist.AppendFloat32(dst, rec.Identity)
			dst = dist.AppendVarint(dst, int64(rec.Diag))
		}
	}
	return dst
}

// DecodeFrom implements dist.Wire.
func (r *AlignRefReply) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	n, present := rd.Len()
	r.Lists = nil
	if present {
		r.Lists = make([][]Record, boundLen(&rd, n))
	}
	for l := range r.Lists {
		n, present := rd.Len()
		if !present {
			continue
		}
		n = boundLen(&rd, n)
		derived := rd.Uvarint()
		if derived > uint64(n) {
			rd.Fail(fmt.Errorf("overlap: wire: %d of %d records mirror-derived", derived, n))
			return rd.Finish()
		}
		recs := make([]Record, n, n+int(derived))
		prevA := int64(0)
		for i := range recs {
			rec := &recs[i]
			prevA += rd.Varint()
			rec.A = int32(prevA)
			rec.B = int32(prevA + rd.Varint())
			rec.Kind = align.Kind(rd.Byte())
			rec.Len = int32(rd.Varint())
			rec.Identity = rd.Float32()
			rec.Diag = int32(rd.Varint())
			if rec.Kind&mirrorDerived != 0 {
				derived--
			}
		}
		if derived != 0 {
			rd.Fail(fmt.Errorf("overlap: wire: mirror-derived count off by %d", int64(derived)))
		}
		r.Lists[l] = recs
	}
	return rd.Finish()
}
