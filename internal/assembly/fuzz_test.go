package assembly

import (
	"testing"

	"focus/internal/dist"
)

// fuzzWireTargets maps FuzzWireDecoders' selector byte (mod the table's
// length) to the decoder it drives. The committed corpus names targets by
// selector, so the table only ever grows at the end: a type keeps its
// selector, and a retired type's selector passes to the message that
// replaced it on the wire. Selectors 0 and 1 drove ScanArgs, the
// stateless protocol's subgraph-plus-phase message: its subgraph now
// ships in LoadArgs (0) and its phase and configs in PhaseArgs (1).
var fuzzWireTargets = [...]func() dist.Wire{
	0:  func() dist.Wire { return &LoadArgs{} },   // was ScanArgs, before that the stateless PhaseArgs{Sub, Cfg}
	1:  func() dist.Wire { return &PhaseArgs{} },  // was ScanArgs, before that VariantArgs
	2:  func() dist.Wire { return &PhaseReply{} }, // was EdgeReply
	3:  func() dist.Wire { return &PhaseReply{} }, // was RemovalReply
	4:  func() dist.Wire { return &PhaseReply{} }, // was PathsReply
	5:  func() dist.Wire { return &PhaseReply{} }, // was VariantsReply
	6:  func() dist.Wire { return &LoadArgs{} },
	7:  func() dist.Wire { return &LoadReply{} },
	8:  func() dist.Wire { return &PhaseArgs{} },  // was PhaseArgsStateful (same bytes)
	9:  func() dist.Wire { return &PhaseReply{} }, // was PhaseReplyStateful (same bytes)
	10: func() dist.Wire { return &CheckpointState{} },
}

func fuzzWireTarget(sel byte) dist.Wire {
	return fuzzWireTargets[int(sel)%len(fuzzWireTargets)]()
}

// FuzzWireDecoders throws arbitrary bytes at every assembly Wire decoder:
// whatever the input, DecodeFrom must return an error or a value — never
// panic, never allocate beyond the input's implied size — and any value it
// accepts must survive a re-encode/re-decode cycle. Decoded messages are
// then served as a worker would: a LoadArgs is stored and every phase run
// on it, a PhaseArgs is run against a stored chain partition. Either must
// answer a reply or an error, never panic. (Subgraphs past a few thousand
// contig bases are skipped: their alignments are legitimately large, and
// the fuzzer's time is better spent elsewhere.)
func FuzzWireDecoders(f *testing.F) {
	// One valid encoding per payload type as seeds.
	seed := func(sel byte, w dist.Wire) { f.Add(sel, w.AppendTo(nil)) }
	seed(0, &LoadArgs{RunID: "run-1", Epoch: 1, Sub: Subgraph{Part: 1, Local: []int32{0, 1}}})
	seed(2, &PhaseReply{Edges: []EdgePair{{From: 1, To: 2}}})
	seed(3, &PhaseReply{Removal: Removal{Nodes: []int32{3}, Edges: []EdgePair{{From: 0, To: 3}}}})
	seed(4, &PhaseReply{Paths: [][]int32{{0, 1, 2}, {5}}})
	seed(5, &PhaseReply{Variants: []Variant{{From: 1, To: 2, AlleleA: 3, AlleleB: 4, Identity: 0.9}}})
	seed(6, &LoadArgs{RunID: "run-1", Epoch: 7, Sub: Subgraph{Part: 0, Local: []int32{0}}})
	seed(7, &LoadReply{})
	seed(8, &PhaseArgs{RunID: "run-1", Part: 2, Phase: "Errors", Epoch: 9})
	seed(10, &CheckpointState{
		Done: []string{"Transitive"},
		K:    2, Labels: []int32{0, 0},
		Graph: &DiGraph{
			Contigs: [][]byte{[]byte("ACGT"), []byte("GTTA")},
			Weight:  []int64{1, 2},
			Removed: []bool{false, false},
			Out:     [][]Edge{{{From: 0, To: 1, Len: 2, Ident: 1}}, nil},
			In:      [][]Edge{nil, {{From: 0, To: 1, Len: 2, Ident: 1}}},
		},
	})
	// Every phase against the stored chain partition, so the fuzzer
	// starts from inputs that reach each scan.
	for _, phase := range []string{"Transitive", "Containment", "Errors", "Paths", "Variants"} {
		seed(1, &PhaseArgs{RunID: "run-1", Phase: phase, Epoch: 1,
			Delta: Delta{RemovedEdges: []EdgePair{{From: 2, To: 3}}}, Cfg: DefaultConfig(), VCfg: DefaultVariantConfig()})
	}
	seed(9, &PhaseReply{Edges: []EdgePair{{From: 0, To: 1}}, Removal: Removal{Nodes: []int32{2}},
		Paths: [][]int32{{3}}, Variants: []Variant{{From: 0, To: -1, AlleleA: 1, AlleleB: 2}}})
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		w := fuzzWireTarget(sel)
		if err := w.DecodeFrom(data); err != nil {
			return
		}
		// Accepted values must re-encode and re-decode cleanly: the codec
		// cannot emit frames its own decoder rejects.
		again := fuzzWireTarget(sel)
		if err := again.DecodeFrom(w.AppendTo(nil)); err != nil {
			t.Fatalf("re-decode of accepted %T failed: %v", w, err)
		}
		svc := &Service{}
		var reply PhaseReply
		switch args := w.(type) {
		case *LoadArgs:
			bases := 0
			for _, n := range args.Sub.Nodes {
				bases += len(n.Contig)
			}
			if bases > 4096 || svc.Load(args, &LoadReply{}) != nil {
				return
			}
			for _, phase := range []string{"Transitive", "Containment", "Errors", "Paths", "Variants"} {
				_ = svc.Phase(&PhaseArgs{RunID: args.RunID, Part: args.Sub.Part, Phase: phase, Epoch: args.Epoch,
					Cfg: DefaultConfig(), VCfg: DefaultVariantConfig()}, &reply)
			}
		case *PhaseArgs:
			sub := *chainSub(4)
			sub.Part = args.Part
			if svc.Load(&LoadArgs{RunID: args.RunID, Sub: sub, Epoch: args.Epoch}, &LoadReply{}) == nil {
				_ = svc.Phase(args, &reply)
			}
		}
	})
}
