package overlap

import (
	"testing"

	"focus/internal/align"
	"focus/internal/dist"
)

// FuzzWireDecoders throws arbitrary bytes at the distributed-alignment
// Wire decoders (AlignRefArgs carries subset bounds and 2-bit packed
// sequences, the reply delta-coded record lists): no input may panic or
// allocate unbounded, and any accepted value must survive a
// re-encode/re-decode cycle. Decoded args are then run through AlignRef,
// as a worker would: it must answer an error or lists the master accepts
// (checkList: in the job's subset pair, canonical, mirror marks where a
// mirror can be derived, in the order mergeRecords requires), never
// panic. (Jobs past a few thousand bases or a band of 64 are skipped:
// their DP is legitimately large, and the fuzzer's time is better spent
// elsewhere.)
func FuzzWireDecoders(f *testing.F) {
	cfg := Config{K: 4, Step: 1, MinKmerHits: 2, Align: align.Config{MinLength: 8, MinIdentity: 0.8, Band: 3, Scoring: align.DefaultScoring}}
	args := &AlignRefArgs{
		Queries: []int32{0, 1}, RefLo: 1, RefHi: 3,
		Seqs: [][]byte{[]byte("TTTTACGTACGTTTGACC"), []byte("ACGTACGTTTGACCA"), []byte("GGGNACGTTTGACCATT")},
		Cfg:  cfg,
	}
	reply := &AlignRefReply{Lists: [][]Record{
		{{A: 0, B: 1, Kind: align.KindSuffixPrefix, Len: 50, Identity: 0.95, Diag: 3}},
		{{A: 1, B: 2, Kind: align.KindPrefixSuffix | mirrorDerived, Len: 80, Identity: 0.99, Diag: -7}},
	}}
	paired := &AlignRefArgs{
		Queries: []int32{0, 2, 4}, RefLo: 2, RefHi: 4, Paired: true,
		Seqs: [][]byte{[]byte("TTTTACGTACGTTTGACCAGT"), []byte("ACGTACGTTTGACCAGTGG")},
		Cfg:  cfg,
	}
	f.Add(true, args.AppendTo(nil))
	f.Add(false, reply.AppendTo(nil))
	f.Add(true, []byte{})
	f.Add(false, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(true, paired.AppendTo(nil))
	f.Fuzz(func(t *testing.T, wantArgs bool, data []byte) {
		var w dist.Wire
		if wantArgs {
			w = &AlignRefArgs{}
		} else {
			w = &AlignRefReply{}
		}
		if err := w.DecodeFrom(data); err != nil {
			return
		}
		var again dist.Wire
		if wantArgs {
			again = &AlignRefArgs{}
		} else {
			again = &AlignRefReply{}
		}
		if err := again.DecodeFrom(w.AppendTo(nil)); err != nil {
			t.Fatalf("re-decode of accepted %T failed: %v", w, err)
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
		lists, err := AlignRef(args)
		if err != nil {
			return
		}
		queries, ref, _ := args.readSets()
		length := func(id int32) int {
			for _, rs := range append(queries, ref) {
				if len(rs.ids) > 0 && id >= rs.ids[0] && int(id-rs.ids[0]) < len(rs.ids) {
					return len(rs.seqs[id-rs.ids[0]])
				}
			}
			t.Fatalf("read %d is not in the job", id)
			return 0
		}
		if len(lists) != len(queries) {
			t.Fatalf("%d lists for %d query subsets", len(lists), len(queries))
		}
		for i, l := range lists {
			if _, bad := checkList(l, args.Queries[i], args.Queries[i+1], args.RefLo, args.RefHi, args.Paired, length); bad != "" {
				t.Fatalf("list %d refused by the master: %s", i, bad)
			}
		}
	})
}
