package overlap

import (
	"fmt"

	"focus/internal/align"
	"focus/internal/dist"
	"focus/internal/dna"
)

// Binary wire encodings (dist.Wire) for the distributed alignment
// protocol. Read sequences — the bulk of an AlignPair job — ship 2-bit
// packed (dna.Pack), ids delta-coded; see DESIGN.md §10 and the aliasing
// contract on dist.Wire (decoders copy, the frame buffer is reused).

var (
	_ dist.Wire = (*AlignPairArgs)(nil)
	_ dist.Wire = (*AlignPairReply)(nil)
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
func (a *AlignPairArgs) AppendTo(dst []byte) []byte {
	dst = dist.AppendInt32sDelta(dst, a.RefIDs)
	dst = appendSeqs(dst, a.RefSeqs)
	dst = dist.AppendInt32sDelta(dst, a.QueryIDs)
	dst = appendSeqs(dst, a.QuerySeqs)
	return appendOverlapConfig(dst, &a.Cfg)
}

// DecodeFrom implements dist.Wire.
func (a *AlignPairArgs) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	a.RefIDs = rd.Int32sDelta()
	a.RefSeqs = decodeSeqs(&rd)
	a.QueryIDs = rd.Int32sDelta()
	a.QuerySeqs = decodeSeqs(&rd)
	decodeOverlapConfig(&rd, &a.Cfg)
	return rd.Finish()
}

// AppendTo implements dist.Wire. Records are delta-coded on A (the
// produced lists are sorted by query read) and B against A.
func (r *AlignPairReply) AppendTo(dst []byte) []byte {
	dst = dist.AppendLen(dst, len(r.Records), r.Records != nil)
	prevA := int64(0)
	for i := range r.Records {
		rec := &r.Records[i]
		dst = dist.AppendVarint(dst, int64(rec.A)-prevA)
		prevA = int64(rec.A)
		dst = dist.AppendVarint(dst, int64(rec.B)-int64(rec.A))
		dst = append(dst, byte(rec.Kind))
		dst = dist.AppendVarint(dst, int64(rec.Len))
		dst = dist.AppendFloat32(dst, rec.Identity)
		dst = dist.AppendVarint(dst, int64(rec.Diag))
	}
	return dst
}

// DecodeFrom implements dist.Wire.
func (r *AlignPairReply) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	n, present := rd.Len()
	if !present {
		r.Records = nil
		return rd.Finish()
	}
	r.Records = make([]Record, boundLen(&rd, n))
	prevA := int64(0)
	for i := range r.Records {
		rec := &r.Records[i]
		prevA += rd.Varint()
		rec.A = int32(prevA)
		rec.B = int32(prevA + rd.Varint())
		rec.Kind = align.Kind(rd.Byte())
		rec.Len = int32(rd.Varint())
		rec.Identity = rd.Float32()
		rec.Diag = int32(rd.Varint())
	}
	return rd.Finish()
}
