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
		RPCRetries: rng.Intn(5),
	}
}

// TestWireAlignPairRoundTrip: randomized DeepEqual property over the
// distributed-alignment payloads, including nil vs empty sequence lists,
// escape-plane bytes, and int32-extreme ids. Decode targets are reused so
// stale state must be overwritten. The config's answer fields round-trip;
// the master-side RPCRetries is not shipped and decodes as zero.
func TestWireAlignPairRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	var args AlignPairArgs
	var reply AlignPairReply
	for i := 0; i < 500; i++ {
		a := &AlignPairArgs{
			RefIDs: randWireIDs(rng), RefSeqs: randWireSeqs(rng),
			QueryIDs: randWireIDs(rng), QuerySeqs: randWireSeqs(rng),
			Cfg: randWireConfig(rng),
		}
		enc := a.AppendTo(nil)
		args.Cfg.RPCRetries = 7 // stale: the decode must clear it
		if err := args.DecodeFrom(enc); err != nil {
			t.Fatalf("args decode: %v", err)
		}
		want := *a
		want.Cfg.RPCRetries = 0
		if !reflect.DeepEqual(&want, &args) {
			t.Fatalf("args round trip diverged:\nsent %+v\ngot  %+v", &want, &args)
		}

		r := &AlignPairReply{}
		switch rng.Intn(8) {
		case 0: // nil Records
		case 1:
			r.Records = []Record{}
		default:
			r.Records = make([]Record, rng.Intn(20))
			for j := range r.Records {
				r.Records[j] = Record{
					A: int32(rng.Uint32()), B: int32(rng.Uint32()),
					Kind: align.Kind(rng.Intn(256)), Len: int32(rng.Uint32()),
					Identity: rng.Float32(), Diag: int32(rng.Uint32()),
				}
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

// TestWireAlignPairCorrupt: truncations must error, bit flips must never
// panic, and corrupt length prefixes must not cause huge allocations.
func TestWireAlignPairCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := &AlignPairArgs{
		RefIDs: []int32{1, 2, 3}, RefSeqs: [][]byte{[]byte("ACGTN"), []byte("GG")},
		QueryIDs: []int32{7}, QuerySeqs: [][]byte{[]byte("TTTT")},
		Cfg: randWireConfig(rng),
	}
	enc := a.AppendTo(nil)
	var dst AlignPairArgs
	for cut := 0; cut < len(enc); cut++ {
		if dst.DecodeFrom(enc[:cut]) == nil {
			t.Fatalf("truncated frame (%d/%d bytes) decoded cleanly", cut, len(enc))
		}
	}
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_ = dst.DecodeFrom(mut)
	}
	// A frame claiming 2^40 records must fail fast, not allocate.
	bad := dist.AppendUvarint(nil, 1<<40)
	var reply AlignPairReply
	if reply.DecodeFrom(bad) == nil {
		t.Fatal("corrupt record count decoded cleanly")
	}
}
