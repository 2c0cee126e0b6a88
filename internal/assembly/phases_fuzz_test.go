package assembly

import "testing"

// decodePhaseFuzzSub deterministically expands arbitrary bytes into a
// bounded Subgraph plus scan config. The decoder is total (any input
// yields some subgraph) so coverage-guided fuzzing explores graph shapes
// — self-loops, duplicate edges, ghost endpoints, all-containment nodes —
// rather than fighting a validator.
func decodePhaseFuzzSub(data []byte) (*Subgraph, Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfg := DefaultConfig()
	n := 1 + int(next()%16)
	cfg.DiagTolerance = int(next() % 32)
	cfg.MaxTipNodes = int(next() % 5)
	cfg.MinTipLen = int(next()) * 4
	cfg.MinEdgeOverlap = 1 + int(next()%64)
	cfg.MinEdgeIdentity = float64(next()%40)/40 + 0.6
	cfg.Band = 2 + int(next()%14)

	// A shared genome keeps some alignments verifiable; bytes pick each
	// node's window so the fuzzer controls the overlap structure.
	bases := []byte("ACGT")
	genome := make([]byte, 512)
	for i := 0; i < 16; i++ {
		b := next()
		for j := 0; j < 32; j++ {
			genome[i*32+j] = bases[(int(b)+j*j)%4]
		}
	}
	sub := &Subgraph{}
	for i := 0; i < n; i++ {
		b0, b1 := next(), next()
		var contig []byte
		if b0%8 != 7 { // some nodes ship no contig
			l := 16 + int(b1)%128
			off := int(b0) % (len(genome) - l)
			contig = genome[off : off+l]
		}
		sub.Nodes = append(sub.Nodes, WireNode{
			ID:     int32(i),
			Weight: int64(b1 % 16),
			Contig: contig,
		})
		if b0&1 == 0 {
			sub.Local = append(sub.Local, int32(i))
		}
	}
	for len(data) >= 5 && len(sub.Edges) < 160 {
		b0, b1, b2, b3, b4 := next(), next(), next(), next(), next()
		from := int32(int(b0) % n)
		to := int32(int(b1) % n)
		if b4&2 != 0 {
			to += 100 // endpoint absent from Nodes
		}
		sub.Edges = append(sub.Edges, Edge{
			From:    from,
			To:      to,
			Diag:    int32(int8(b2)),
			Len:     int32(b3),
			Ident:   1,
			Contain: b4&1 != 0,
		})
	}
	return sub, cfg
}

// FuzzPhaseEngines throws arbitrary subgraphs at the CSR scans and the
// map oracle and requires deeply equal results at workers 1, 2 and 8 —
// the CSR kernels must match the oracle on any input, not just
// well-formed assembler subgraphs.
func FuzzPhaseEngines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x04\x08\x02\x20\x30\x10\x06unique-window-bytes\x00\x02\x04\x06" +
		"\x00\x01\x14\x50\x00\x01\x02\x14\x50\x00\x00\x02\x28\x50\x00"))
	f.Add([]byte("\x08\x00\x03\x40\x20\x18\x08ABCDABCDABCDABCD\x02\x10\x04\x12\x06\x14" +
		"\x00\x01\x05\x40\x01\x01\x00\x05\x40\x00\x02\x03\x0a\x30\x02\x03\x03\x00\x00\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, cfg := decodePhaseFuzzSub(data)
		checkScansMatchOracle(t, sub, cfg, 1, 2, 8)
	})
}
