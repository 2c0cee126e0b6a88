package overlap

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"focus/internal/align"
	"focus/internal/dist"
)

func randWireIDs(rng *rand.Rand) []int32 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	ids := make([]int32, rng.Intn(16))
	for i := range ids {
		switch rng.Intn(10) {
		case 0:
			ids[i] = math.MaxInt32
		case 1:
			ids[i] = math.MinInt32
		default:
			ids[i] = int32(rng.Uint32())
		}
	}
	return ids
}

func randWireSeqs(rng *rand.Rand) [][]byte {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return [][]byte{}
	}
	alphabet := []byte("ACGTACGTACGTN#acgt")
	seqs := make([][]byte, rng.Intn(8))
	for i := range seqs {
		switch rng.Intn(6) {
		case 0: // nil sequence
		case 1:
			seqs[i] = []byte{}
		default:
			s := make([]byte, rng.Intn(120))
			for j := range s {
				s[j] = alphabet[rng.Intn(len(alphabet))]
			}
			seqs[i] = s
		}
	}
	return seqs
}

func randWireConfig(rng *rand.Rand) Config {
	return Config{
		K: rng.Intn(32), Step: rng.Intn(8), MinKmerHits: rng.Intn(10), MaxOccur: rng.Intn(100) - 50,
		Align: align.Config{
			MinLength: rng.Intn(500), MinIdentity: rng.Float64(), Band: rng.Intn(64),
			Scoring: align.Scoring{Match: rng.Intn(10) - 5, Mismatch: rng.Intn(10) - 5, Gap: rng.Intn(10) - 5},
		},
	}
}

func randWireRecords(rng *rand.Rand) []Record {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []Record{}
	}
	recs := make([]Record, rng.Intn(20))
	for j := range recs {
		recs[j] = Record{
			A: int32(rng.Uint32()), B: int32(rng.Uint32()),
			Kind: align.Kind(rng.Intn(256)), Len: int32(rng.Uint32()),
			Identity: rng.Float32(), Diag: int32(rng.Uint32()),
		}
	}
	return recs
}

// TestWireAlignPairRoundTrip: randomized DeepEqual property over the
// distributed-alignment payloads, AlignRefArgs and AlignRefReply,
// including nil vs empty sequence and record lists, escape-plane bytes,
// int32-extreme bounds and ids, and every Kind byte (mirrorDerived
// included). Decode targets are reused so stale state must be
// overwritten.
func TestWireAlignPairRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	var args AlignRefArgs
	var reply AlignRefReply
	for i := 0; i < 500; i++ {
		a := &AlignRefArgs{
			Queries: randWireIDs(rng), RefLo: int32(rng.Uint32()), RefHi: int32(rng.Uint32()),
			Paired: rng.Intn(2) == 0, Seqs: randWireSeqs(rng), Cfg: randWireConfig(rng),
		}
		enc := a.AppendTo(nil)
		if err := args.DecodeFrom(enc); err != nil {
			t.Fatalf("args decode: %v", err)
		}
		if !reflect.DeepEqual(a, &args) {
			t.Fatalf("args round trip diverged:\nsent %+v\ngot  %+v", a, &args)
		}

		r := &AlignRefReply{}
		switch rng.Intn(8) {
		case 0: // nil Lists
		case 1:
			r.Lists = [][]Record{}
		default:
			r.Lists = make([][]Record, rng.Intn(5))
			for j := range r.Lists {
				r.Lists[j] = randWireRecords(rng)
			}
		}
		enc = r.AppendTo(nil)
		if err := reply.DecodeFrom(enc); err != nil {
			t.Fatalf("reply decode: %v", err)
		}
		if !reflect.DeepEqual(r, &reply) {
			t.Fatalf("reply round trip diverged:\nsent %+v\ngot  %+v", r, &reply)
		}
	}
}

// TestWireAlignPairCorrupt: truncations of either message must error, bit
// flips must never panic, and corrupt length prefixes — of the sequences,
// of the lists, of one list's records — must not cause huge allocations.
func TestWireAlignPairCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := &AlignRefArgs{
		Queries: []int32{2, 4, 6}, RefLo: 8, RefHi: 10, Paired: true,
		Seqs: [][]byte{[]byte("ACGTN"), []byte("GG"), []byte("TTTT")},
		Cfg:  randWireConfig(rng),
	}
	r := &AlignRefReply{Lists: [][]Record{
		{{A: 2, B: 8, Kind: align.KindSuffixPrefix | mirrorDerived, Len: 40, Identity: 0.95, Diag: 9}},
		nil,
		{},
	}}
	var dst AlignRefArgs
	var reply AlignRefReply
	for _, msg := range []dist.Wire{a, r} {
		enc := msg.AppendTo(nil)
		dec := dist.Wire(&dst)
		if msg == dist.Wire(r) {
			dec = &reply
		}
		for cut := 0; cut < len(enc); cut++ {
			if dec.DecodeFrom(enc[:cut]) == nil {
				t.Fatalf("%T: truncated frame (%d/%d bytes) decoded cleanly", msg, cut, len(enc))
			}
		}
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), enc...)
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			_ = dec.DecodeFrom(mut)
		}
	}
	// Frames claiming 2^40 lists, or one list of 2^40 records, or 2^40
	// sequences must fail fast, not allocate.
	for _, bad := range [][]byte{
		dist.AppendUvarint(nil, 1<<40),
		dist.AppendUvarint(dist.AppendLen(nil, 1, true), 1<<40),
	} {
		if reply.DecodeFrom(bad) == nil {
			t.Fatalf("corrupt count %x decoded cleanly", bad)
		}
	}
	bad := dist.AppendUvarint(append(dist.AppendVarint(dist.AppendVarint(dist.AppendInt32sDelta(nil, []int32{0, 2}), 2), 4), 0), 1<<40)
	if dst.DecodeFrom(bad) == nil {
		t.Fatal("corrupt sequence count decoded cleanly")
	}
}
