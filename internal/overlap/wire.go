package overlap

import (
	"fmt"
	"math"

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

// appendOverlapConfig encodes the fields a worker's records depend on:
// all but MaxOccur, whose mask ships as AlignRefArgs.Masked.
func appendOverlapConfig(dst []byte, c *Config) []byte {
	dst = dist.AppendVarint(dst, int64(c.K))
	dst = dist.AppendVarint(dst, int64(c.Step))
	dst = dist.AppendVarint(dst, int64(c.MinKmerHits))
	return appendAlignConfig(dst, &c.Align)
}

func decodeOverlapConfig(rd *dist.WireReader, c *Config) {
	*c = Config{}
	c.K = int(rd.Varint())
	c.Step = int(rd.Varint())
	c.MinKmerHits = int(rd.Varint())
	decodeAlignConfig(rd, &c.Align)
}

// appendKeys encodes an ascending key list as its length, its first key
// and the gaps to each next one.
func appendKeys(dst []byte, keys []uint64) []byte {
	dst = dist.AppendLen(dst, len(keys), keys != nil)
	prev := uint64(0)
	for _, key := range keys {
		dst = dist.AppendUvarint(dst, key-prev)
		prev = key
	}
	return dst
}

// decodeKeys reads an appendKeys list of k-mer keys, refusing one that is
// not strictly ascending or holds a key past 4^k − 1.
func decodeKeys(rd *dist.WireReader, k int) []uint64 {
	n, present := rd.Len()
	if !present {
		return nil
	}
	keys := make([]uint64, boundLen(rd, n))
	prev := uint64(0)
	for i := range keys {
		keys[i] = prev + rd.Uvarint()
		if (i > 0 && keys[i] <= prev) || (k < dna.MaxK && keys[i]>>(2*uint(k)) != 0) {
			rd.Fail(fmt.Errorf("overlap: wire: masked key %d (%#x) not ascending or past k=%d", i, keys[i], k))
			return nil
		}
		prev = keys[i]
	}
	return keys
}

// AppendTo implements dist.Wire.
func (a *AlignRefArgs) AppendTo(dst []byte) []byte {
	dst = dist.AppendInt32sDelta(dst, a.Queries)
	dst = dist.AppendVarint(dst, int64(a.RefLo))
	dst = dist.AppendVarint(dst, int64(a.RefHi))
	dst = dist.AppendBool(dst, a.Paired)
	dst = appendSeqs(dst, a.Seqs)
	dst = appendOverlapConfig(dst, &a.Cfg)
	return appendKeys(dst, a.Masked)
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
	a.Masked = decodeKeys(&rd, a.Cfg.K)
	return rd.Finish()
}

// A reply list's records are sorted by (A, B, Kind), and each one AlignRef
// emits is an align.OverlapOnDiagonal verdict: its Len columns span the
// window bases the diagonal gives each read plus g gap columns (a gap in
// one read is matched by one in the other), and its Identity is the
// worker's float32(float64(matches)/float64(Len)). Both ends hold the reads,
// so, given their lengths (Lengths), such a record ships as
//
//	token  uvarint  (A − prev A)<<4 | mirrorDerived<<3 | (Kind − 1)<<1
//	B      uvarint  B − prev B within one A's run; a run's first B against
//	                max(A+1, base), base the least B of the list
//	Diag   varint
//	x, g   uvarint  x<<1 | (g > 0), then g − 1 if g > 0; x = Len − matches
//
// and the decoder rebuilds Len = window + g and Identity from the worker's
// own expression, bit for bit. Any other record — an undefined kind, an
// identity that is not a ratio of integers over Len, a Len below its
// window, ids out of order, or a reply without Lengths — ships after the
// token escapeToken as its raw fields (A − prev A, B − A, Kind byte, Len,
// float32 Identity, Diag), so AppendTo is total. A compact record whose x
// exceeds Len or whose window is empty decodes to a record checkList
// refuses (a negative identity; an empty window), so a forged one fails its
// job with a ReplyError instead of reading as a broken connection.
const escapeToken = 1

// window is the number of bases each read spans on diagonal diag, B's
// start in A's coordinates, as align.OverlapOnDiagonal cuts it; 0 or less
// when the reads do not meet there.
func window(diag int64, lenA, lenB int) int64 {
	return min(int64(lenA), diag+int64(lenB)) - max(diag, 0)
}

// nonMatching returns the x with identity == float32(float64(l-x)/float64(l))
// (bit for bit), if one in [0, l] exists; l > 0.
func nonMatching(l int32, identity float32) (uint64, bool) {
	m := math.Round(float64(identity) * float64(l))
	if !(m >= 0 && m <= float64(l)) || math.Float32bits(float32(m/float64(l))) != math.Float32bits(identity) {
		return 0, false
	}
	return uint64(float64(l) - m), true
}

// recordCoder is the state one list's records are coded against.
type recordCoder struct {
	lengths      ReadLengths
	base         int64 // the least B of the list
	prevA, prevB int64
	run          bool // a record precedes: prevA's run is open
}

// runStart is what B is coded against: the previous B in A's run, or
// max(A+1, base) for the run's first record.
func (c *recordCoder) runStart(a int64) int64 {
	if c.run && a == c.prevA {
		return c.prevB
	}
	return max(a+1, c.base)
}

// appendRecord appends rec compact if it can and escaped otherwise, and
// reports whether it escaped.
func (c *recordCoder) appendRecord(dst []byte, rec *Record) ([]byte, bool) {
	a, b, kind := int64(rec.A), int64(rec.B), rec.Kind&^mirrorDerived
	start := c.runStart(a)
	prevA := c.prevA
	c.prevA, c.prevB, c.run = a, b, true
	if c.lengths != nil && a >= prevA && b >= start && kind >= align.KindSuffixPrefix && kind <= align.KindBContainsA {
		w := window(int64(rec.Diag), c.lengths.ReadLen(rec.A), c.lengths.ReadLen(rec.B))
		if g := int64(rec.Len) - w; w > 0 && g >= 0 {
			if x, ok := nonMatching(rec.Len, rec.Identity); ok {
				tok := uint64(a-prevA)<<4 | uint64(kind-1)<<1
				if rec.Kind != kind {
					tok |= 1 << 3
				}
				dst = dist.AppendUvarint(dst, tok)
				dst = dist.AppendUvarint(dst, uint64(b-start))
				dst = dist.AppendVarint(dst, int64(rec.Diag))
				if g == 0 {
					return dist.AppendUvarint(dst, x<<1), false
				}
				return dist.AppendUvarint(dist.AppendUvarint(dst, x<<1|1), uint64(g-1)), false
			}
		}
	}
	dst = dist.AppendUvarint(dst, escapeToken)
	dst = dist.AppendVarint(dst, a-prevA)
	dst = dist.AppendVarint(dst, b-a)
	dst = append(dst, byte(rec.Kind))
	dst = dist.AppendVarint(dst, int64(rec.Len))
	dst = dist.AppendFloat32(dst, rec.Identity)
	return dist.AppendVarint(dst, int64(rec.Diag)), true
}

// decodeRecord reads one record appendRecord wrote.
func (c *recordCoder) decodeRecord(rd *dist.WireReader, rec *Record) {
	tok := rd.Uvarint()
	if tok == escapeToken {
		a := c.prevA + rd.Varint()
		rec.A = int32(a)
		rec.B = int32(a + rd.Varint())
		rec.Kind = align.Kind(rd.Byte())
		rec.Len = int32(rd.Varint())
		rec.Identity = rd.Float32()
		rec.Diag = int32(rd.Varint())
		c.prevA, c.prevB, c.run = int64(rec.A), int64(rec.B), true
		return
	}
	if tok&1 != 0 || c.lengths == nil {
		rd.Fail(fmt.Errorf("overlap: wire: record token %#x (read lengths known: %v)", tok, c.lengths != nil))
		return
	}
	// The uvarints are clamped so that no sum wraps; what overshoots an
	// int32 field fails below.
	a := c.prevA + int64(min(tok>>4, math.MaxUint32))
	b := c.runStart(a) + int64(min(rd.Uvarint(), math.MaxUint32))
	diag := rd.Varint()
	v := rd.Uvarint()
	l := window(diag, c.lengths.ReadLen(int32(a)), c.lengths.ReadLen(int32(b)))
	if v&1 != 0 {
		l += int64(min(rd.Uvarint(), math.MaxUint32)) + 1
	}
	if a > math.MaxInt32 || b > math.MaxInt32 || diag != int64(int32(diag)) || l != int64(int32(l)) {
		rd.Fail(fmt.Errorf("overlap: wire: compact record (%d, %d) on diagonal %d of %d columns out of range", a, b, diag, l))
		return
	}
	kind := align.Kind(tok>>1&3) + align.KindSuffixPrefix
	if tok&(1<<3) != 0 {
		kind |= mirrorDerived
	}
	*rec = Record{A: int32(a), B: int32(b), Kind: kind, Len: int32(l), Identity: float32((float64(l) - float64(v>>1)) / float64(l)), Diag: int32(diag)}
	c.prevA, c.prevB, c.run = a, b, true
}

// AppendTo implements dist.Wire.
func (r *AlignRefReply) AppendTo(dst []byte) []byte {
	dst = dist.AppendLen(dst, len(r.Lists), r.Lists != nil)
	for _, recs := range r.Lists {
		dst, _ = appendList(dst, recs, r.Lengths)
	}
	return dst
}

// appendList appends one reply list and returns how many of its records
// escaped. The list leads with its length, the number of its records
// marked mirrorDerived, so that the decoder can reserve the room
// expandMirrors restores the mirrors into, and its least B; then come its
// records (recordCoder).
func appendList(dst []byte, recs []Record, lengths ReadLengths) ([]byte, int) {
	dst = dist.AppendLen(dst, len(recs), recs != nil)
	if recs == nil {
		return dst, 0
	}
	derived, base := 0, int64(0)
	for i := range recs {
		if recs[i].Kind&mirrorDerived != 0 {
			derived++
		}
		if b := int64(recs[i].B); i == 0 || b < base {
			base = b
		}
	}
	dst = dist.AppendUvarint(dst, uint64(derived))
	dst = dist.AppendVarint(dst, base)
	c := recordCoder{lengths: lengths, base: base}
	escapes := 0
	for i := range recs {
		var escaped bool
		if dst, escaped = c.appendRecord(dst, &recs[i]); escaped {
			escapes++
		}
	}
	return dst, escapes
}

// DecodeFrom implements dist.Wire. It decodes compact records against
// r.Lengths, which it leaves as it is.
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
		c := recordCoder{lengths: r.Lengths, base: rd.Varint()}
		recs := make([]Record, n, n+int(derived))
		for i := range recs {
			c.decodeRecord(&rd, &recs[i])
			if recs[i].Kind&mirrorDerived != 0 {
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
