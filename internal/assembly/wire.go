package assembly

import (
	"focus/internal/dist"
	"focus/internal/dna"
)

// This file gives every RPC payload of the assembly service its
// hand-written binary encoding (dist.Wire). The encodings lean on the
// payloads' structure: node/edge id lists are delta-zigzag varints
// (partition-sorted ids collapse to ~1 byte each), contigs ship 2-bit
// packed via dna.Pack, and configs are plain varint/float fields.
// Decoders copy everything they keep — the source buffer is the codec's
// reused frame and dies when DecodeFrom returns (see the Wire contract in
// dist and DESIGN.md §10).
//
// nil and empty slices round-trip distinctly (dist.AppendLen), so decoded
// values are reflect.DeepEqual to their originals.
//
// Any change to the bytes written here is a wire-version change:
// TestWireSchemaPinned holds them to testdata/wire_v<N>.golden.

// Compile-time interface checks: every RPC body of the service is a Wire
// implementer (the pool refuses to send one that is not).
var (
	_ dist.Wire = (*PhaseReply)(nil)
	_ dist.Wire = (*LoadArgs)(nil)
	_ dist.Wire = (*PhaseArgs)(nil)
)

// appendContig appends the 2-bit packed sequence; the presence bit rides
// in the node's Part varint (see appendSubgraph), so absent contigs cost
// nothing here.
func appendContig(dst, contig []byte) []byte {
	if contig != nil {
		dst = dna.Pack(dst, contig)
	}
	return dst
}

func decodeContig(rd *dist.WireReader, present bool) []byte {
	if !present {
		return nil
	}
	rest := rd.Unread()
	seq, tail, err := dna.Unpack(nil, rest)
	if err != nil {
		rd.Fail(err)
		return nil
	}
	rd.Skip(len(rest) - len(tail))
	if seq == nil {
		seq = []byte{} // present-but-empty stays non-nil
	}
	return seq
}

// appendConfig encodes the six scan parameters a worker's answer depends
// on. Stateful never ships: it decodes as false.
func appendConfig(dst []byte, c *Config) []byte {
	dst = dist.AppendVarint(dst, int64(c.MinEdgeOverlap))
	dst = dist.AppendFloat64(dst, c.MinEdgeIdentity)
	dst = dist.AppendVarint(dst, int64(c.Band))
	dst = dist.AppendVarint(dst, int64(c.DiagTolerance))
	dst = dist.AppendVarint(dst, int64(c.MaxTipNodes))
	return dist.AppendVarint(dst, int64(c.MinTipLen))
}

func decodeConfig(rd *dist.WireReader, c *Config) {
	*c = Config{}
	c.MinEdgeOverlap = int(rd.Varint())
	c.MinEdgeIdentity = rd.Float64()
	c.Band = int(rd.Varint())
	c.DiagTolerance = int(rd.Varint())
	c.MaxTipNodes = int(rd.Varint())
	c.MinTipLen = int(rd.Varint())
}

// appendEdges encodes an edge list: From delta-coded against the previous
// edge's From (edge lists are emitted grouped by source node) with the
// Contain flag folded into the delta varint's low bit, To against its own
// From (graph locality keeps the gap small), and Len delta-coded against
// the previous edge's Len (overlap lengths cluster tightly, so the delta
// usually fits one byte where the absolute value needs two).
func appendEdges(dst []byte, es []Edge) []byte {
	dst = dist.AppendLen(dst, len(es), es != nil)
	prevFrom, prevLen := int64(0), int64(0)
	for i := range es {
		e := &es[i]
		d := int64(e.From) - prevFrom
		tok := (uint64(d<<1)^uint64(d>>63))<<1 | 0 // zigzag(delta)<<1 | contain
		if e.Contain {
			tok |= 1
		}
		dst = dist.AppendUvarint(dst, tok)
		prevFrom = int64(e.From)
		dst = dist.AppendVarint(dst, int64(e.To)-int64(e.From))
		dst = dist.AppendVarint(dst, int64(e.Diag))
		dst = dist.AppendVarint(dst, int64(e.Len)-prevLen)
		prevLen = int64(e.Len)
		dst = dist.AppendFloat32(dst, e.Ident)
	}
	return dst
}

func decodeEdges(rd *dist.WireReader) []Edge {
	n, present := rd.Len()
	if !present {
		return nil
	}
	es := make([]Edge, n)
	prevFrom, prevLen := int64(0), int64(0)
	for i := range es {
		e := &es[i]
		tok := rd.Uvarint()
		e.Contain = tok&1 != 0
		z := tok >> 1
		prevFrom += int64(z>>1) ^ -int64(z&1) // unzigzag
		e.From = int32(prevFrom)
		e.To = int32(prevFrom + rd.Varint())
		e.Diag = int32(rd.Varint())
		prevLen += rd.Varint()
		e.Len = int32(prevLen)
		e.Ident = rd.Float32()
	}
	return es
}

func appendEdgePairs(dst []byte, ps []EdgePair) []byte {
	dst = dist.AppendLen(dst, len(ps), ps != nil)
	prevFrom := int64(0)
	for _, p := range ps {
		dst = dist.AppendVarint(dst, int64(p.From)-prevFrom)
		prevFrom = int64(p.From)
		dst = dist.AppendVarint(dst, int64(p.To)-int64(p.From))
	}
	return dst
}

func decodeEdgePairs(rd *dist.WireReader) []EdgePair {
	n, present := rd.Len()
	if !present {
		return nil
	}
	ps := make([]EdgePair, n)
	prevFrom := int64(0)
	for i := range ps {
		prevFrom += rd.Varint()
		ps[i].From = int32(prevFrom)
		ps[i].To = int32(prevFrom + rd.Varint())
	}
	return ps
}

func appendPaths(dst []byte, paths [][]int32) []byte {
	dst = dist.AppendLen(dst, len(paths), paths != nil)
	for _, p := range paths {
		dst = dist.AppendInt32sDelta(dst, p)
	}
	return dst
}

func decodePaths(rd *dist.WireReader) [][]int32 {
	n, present := rd.Len()
	if !present {
		return nil
	}
	paths := make([][]int32, n)
	for i := range paths {
		paths[i] = rd.Int32sDelta()
	}
	return paths
}

func appendRemoval(dst []byte, r *Removal) []byte {
	dst = dist.AppendInt32sDelta(dst, r.Nodes)
	return appendEdgePairs(dst, r.Edges)
}

func decodeRemoval(rd *dist.WireReader, r *Removal) {
	r.Nodes = rd.Int32sDelta()
	r.Edges = decodeEdgePairs(rd)
}

func appendSubgraph(dst []byte, s *Subgraph) []byte {
	dst = dist.AppendVarint(dst, int64(s.Part))
	dst = dist.AppendInt32sDelta(dst, s.Local)
	dst = dist.AppendLen(dst, len(s.Nodes), s.Nodes != nil)
	prev := int64(0)
	for i := range s.Nodes {
		n := &s.Nodes[i]
		dst = dist.AppendVarint(dst, int64(n.ID)-prev)
		prev = int64(n.ID)
		part := int64(n.Part) << 1 // low bit: contig present
		if n.Contig != nil {
			part |= 1
		}
		dst = dist.AppendVarint(dst, part)
		dst = dist.AppendVarint(dst, n.Weight)
		dst = appendContig(dst, n.Contig)
	}
	return appendEdges(dst, s.Edges)
}

func decodeSubgraph(rd *dist.WireReader, s *Subgraph) {
	s.Part = int32(rd.Varint())
	s.Local = rd.Int32sDelta()
	n, present := rd.Len()
	if !present {
		s.Nodes = nil
	} else {
		s.Nodes = make([]WireNode, n)
		prev := int64(0)
		for i := range s.Nodes {
			wn := &s.Nodes[i]
			prev += rd.Varint()
			wn.ID = int32(prev)
			part := rd.Varint()
			wn.Part = int32(part >> 1)
			wn.Weight = rd.Varint()
			wn.Contig = decodeContig(rd, part&1 != 0)
		}
	}
	s.Edges = decodeEdges(rd)
}

func appendDelta(dst []byte, d *Delta) []byte {
	dst = dist.AppendInt32sDelta(dst, d.RemovedNodes)
	return appendEdgePairs(dst, d.RemovedEdges)
}

func decodeDelta(rd *dist.WireReader, d *Delta) {
	d.RemovedNodes = rd.Int32sDelta()
	d.RemovedEdges = decodeEdgePairs(rd)
}

// AppendTo implements dist.Wire.
func (a *LoadArgs) AppendTo(dst []byte) []byte {
	return appendSubgraph(dst, &a.Sub)
}

// DecodeFrom implements dist.Wire.
func (a *LoadArgs) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	decodeSubgraph(&rd, &a.Sub)
	return rd.Finish()
}

// AppendTo implements dist.Wire.
func (a *PhaseArgs) AppendTo(dst []byte) []byte {
	dst = dist.AppendVarint(dst, int64(a.Part))
	dst = dist.AppendString(dst, a.Phase)
	dst = appendDelta(dst, &a.Delta)
	return appendConfig(dst, &a.Cfg)
}

// DecodeFrom implements dist.Wire.
func (a *PhaseArgs) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	a.Part = int32(rd.Varint())
	a.Phase = rd.String()
	decodeDelta(&rd, &a.Delta)
	decodeConfig(&rd, &a.Cfg)
	return rd.Finish()
}

// AppendTo implements dist.Wire.
func (r *PhaseReply) AppendTo(dst []byte) []byte {
	dst = appendEdgePairs(dst, r.Edges)
	dst = appendRemoval(dst, &r.Removal)
	return appendPaths(dst, r.Paths)
}

// DecodeFrom implements dist.Wire.
func (r *PhaseReply) DecodeFrom(src []byte) error {
	rd := dist.NewWireReader(src)
	r.Edges = decodeEdgePairs(&rd)
	decodeRemoval(&rd, &r.Removal)
	r.Paths = decodePaths(&rd)
	return rd.Finish()
}
