package overlap

import (
	"testing"

	"focus/internal/align"
	"focus/internal/dist"
)

// FuzzWireDecoders throws arbitrary bytes at the distributed-alignment
// Wire decoders (AlignPairArgs carries 2-bit packed sequences, the reply
// delta-coded records): no input may panic or allocate unbounded, and any
// accepted value must survive a re-encode/re-decode cycle. Decoded args
// are then run through AlignPair, as a worker would: it must answer an
// error or records in the order mergeRecords requires, never panic. (Jobs
// past a few thousand bases or a band of 64 are skipped: their DP is
// legitimately large, and the fuzzer's time is better spent elsewhere.)
func FuzzWireDecoders(f *testing.F) {
	args := &AlignPairArgs{
		RefIDs:    []int32{1, 2},
		RefSeqs:   [][]byte{[]byte("ACGTACGTTTGACCA"), []byte("GGGNACGTTTGACCATT")},
		QueryIDs:  []int32{0},
		QuerySeqs: [][]byte{[]byte("TTTTACGTACGTTTGACC")},
		Cfg:       Config{K: 4, Step: 1, MinKmerHits: 2, Align: align.Config{MinLength: 8, MinIdentity: 0.8, Band: 3, Scoring: align.DefaultScoring}},
	}
	reply := &AlignPairReply{Records: []Record{
		{A: 0, B: 1, Kind: align.KindSuffixPrefix, Len: 50, Identity: 0.95, Diag: 3},
		{A: 1, B: 2, Kind: align.KindPrefixSuffix, Len: 80, Identity: 0.99, Diag: -7},
	}}
	f.Add(true, args.AppendTo(nil))
	f.Add(false, reply.AppendTo(nil))
	f.Add(true, []byte{})
	f.Add(false, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, wantArgs bool, data []byte) {
		var w dist.Wire
		if wantArgs {
			w = &AlignPairArgs{}
		} else {
			w = &AlignPairReply{}
		}
		if err := w.DecodeFrom(data); err != nil {
			return
		}
		var again dist.Wire
		if wantArgs {
			again = &AlignPairArgs{}
		} else {
			again = &AlignPairReply{}
		}
		if err := again.DecodeFrom(w.AppendTo(nil)); err != nil {
			t.Fatalf("re-decode of accepted %T failed: %v", w, err)
		}
		args, ok := w.(*AlignPairArgs)
		if !ok || args.Cfg.Align.Band > 64 {
			return
		}
		bases := 0
		for _, seqs := range [][][]byte{args.RefSeqs, args.QuerySeqs} {
			for _, s := range seqs {
				bases += len(s)
			}
		}
		if bases > 4096 {
			return
		}
		recs, err := AlignPair(args)
		if err != nil {
			return
		}
		for i := 1; i < len(recs); i++ {
			if compareKey(recs[i-1], recs[i]) >= 0 {
				t.Fatalf("AlignPair records out of order at %d: %+v then %+v", i, recs[i-1], recs[i])
			}
		}
	})
}
