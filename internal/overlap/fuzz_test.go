package overlap

import (
	"bytes"
	"testing"

	"focus/internal/align"
	"focus/internal/dist"
)

// fuzzLengths is FuzzWireDecoders' read-length oracle: read id, below
// 4096, has 20 + id mod 90 bases.
type fuzzLengths struct{}

func (fuzzLengths) ReadLen(id int32) int {
	if id < 0 || id >= 4096 {
		return 0
	}
	return 20 + int(id)%90
}

// identity is the worker's identity of m matches over l columns.
func identity(m, l int) float32 { return float32(float64(m) / float64(l)) }

// FuzzWireDecoders throws arbitrary bytes at the distributed-alignment
// Wire decoders (AlignRefArgs carries subset bounds and 2-bit packed
// sequences, the reply record lists, compact against fuzzLengths or
// escaped): no input may panic or allocate unbounded, and any accepted
// value must survive a re-encode/re-decode cycle with the same bytes.
// Decoded args are then run through AlignRef, as a worker would: it must
// answer an error or lists the master accepts (checkList: in the job's
// subset pair, canonical, mirror marks where a mirror can be derived, in
// the order mergeRecords requires), never panic. (Jobs past a few
// thousand bases or a band of 64 are skipped: their DP is legitimately
// large, and the fuzzer's time is better spent elsewhere.)
func FuzzWireDecoders(f *testing.F) {
	cfg := Config{K: 4, Step: 1, MinKmerHits: 2, Align: align.Config{MinLength: 8, MinIdentity: 0.8, Band: 3, Scoring: align.DefaultScoring}}
	args := &AlignRefArgs{
		Queries: []int32{0, 1}, RefLo: 1, RefHi: 3,
		Seqs: [][]byte{[]byte("TTTTACGTACGTTTGACC"), []byte("ACGTACGTTTGACCA"), []byte("GGGNACGTTTGACCATT")},
		Cfg:  cfg,
	}
	escaped := &AlignRefReply{Lists: [][]Record{
		{{A: 0, B: 1, Kind: align.KindSuffixPrefix, Len: 50, Identity: 0.95, Diag: 3}},
		{{A: 1, B: 2, Kind: align.KindPrefixSuffix | mirrorDerived, Len: 80, Identity: 0.99, Diag: -7}},
	}, Lengths: fuzzLengths{}}
	// Reads 2, 5, 9 and 12 have 22, 25, 29 and 32 bases: records on their
	// windows (19 and 22 columns), one with two gap columns, one derived.
	compact := &AlignRefReply{Lists: [][]Record{
		{{A: 2, B: 5, Kind: align.KindAContainsB, Len: 19, Identity: 1, Diag: 3},
			{A: 2, B: 9, Kind: align.KindBContainsA | mirrorDerived, Len: 24, Identity: identity(20, 24), Diag: -4}},
		{{A: 9, B: 12, Kind: align.KindSuffixPrefix, Len: 21, Identity: identity(19, 21), Diag: 8}},
	}, Lengths: fuzzLengths{}}
	for _, l := range compact.Lists {
		if _, escapes := appendList(nil, l, compact.Lengths); escapes != 0 {
			f.Fatalf("the compact seed escapes %d records", escapes)
		}
	}
	paired := &AlignRefArgs{
		Queries: []int32{0, 2, 4}, RefLo: 2, RefHi: 4, Paired: true,
		Seqs: [][]byte{[]byte("TTTTACGTACGTTTGACCAGT"), []byte("ACGTACGTTTGACCAGTGG")},
		Cfg:  cfg,
	}
	f.Add(true, args.AppendTo(nil))
	f.Add(false, escaped.AppendTo(nil))
	f.Add(false, compact.AppendTo(nil))
	f.Add(true, []byte{})
	f.Add(false, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(true, paired.AppendTo(nil))
	fresh := func(wantArgs bool) dist.Wire {
		if wantArgs {
			return &AlignRefArgs{}
		}
		return &AlignRefReply{Lengths: fuzzLengths{}}
	}
	f.Fuzz(func(t *testing.T, wantArgs bool, data []byte) {
		w := fresh(wantArgs)
		if err := w.DecodeFrom(data); err != nil {
			return
		}
		enc, again := w.AppendTo(nil), fresh(wantArgs)
		if err := again.DecodeFrom(enc); err != nil {
			t.Fatalf("re-decode of accepted %T failed: %v", w, err)
		}
		if !bytes.Equal(again.AppendTo(nil), enc) {
			t.Fatalf("re-encode of accepted %T changed its bytes", w)
		}
		args, ok := w.(*AlignRefArgs)
		if !ok || args.Cfg.Align.Band > 64 {
			return
		}
		bases := 0
		for _, s := range args.Seqs {
			bases += len(s)
		}
		if bases > 4096 {
			return
		}
		var reply AlignRefReply
		if AlignRef(args, &reply) != nil {
			return
		}
		if len(reply.Lists) != len(args.Queries)-1 {
			t.Fatalf("%d lists for %d query subsets", len(reply.Lists), len(args.Queries)-1)
		}
		for i, l := range reply.Lists {
			if _, bad := checkList(l, args.Queries[i], args.Queries[i+1], args.RefLo, args.RefHi, args.Paired, reply.Lengths.ReadLen); bad != "" {
				t.Fatalf("list %d refused by the master: %s", i, bad)
			}
		}
	})
}
