package overlap

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// randWireConfig draws a configuration as it ships: MaxOccur does not
// (AlignRefArgs.Masked does).
func randWireConfig(rng *rand.Rand) Config {
	return Config{
		K: 1 + rng.Intn(32), Step: rng.Intn(8), MinKmerHits: rng.Intn(10),
		Align: align.Config{
			MinLength: rng.Intn(500), MinIdentity: rng.Float64(), Band: rng.Intn(64),
			Scoring: align.Scoring{Match: rng.Intn(10) - 5, Mismatch: rng.Intn(10) - 5, Gap: rng.Intn(10) - 5},
		},
	}
}

// randWireKeys draws an ascending list of k-mer keys, nil or empty at
// times, the largest key among them now and then.
func randWireKeys(rng *rand.Rand, k int) []uint64 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []uint64{}
	}
	top := uint64(polyT(k))
	keys := []uint64{top}
	for range rng.Intn(20) {
		keys = append(keys, rng.Uint64()&top)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
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

// TestWireAlignRefRoundTrip: randomized DeepEqual property over the
// distributed-alignment payloads, AlignRefArgs and AlignRefReply,
// including nil vs empty sequence and record lists, escape-plane bytes,
// int32-extreme bounds and ids, and every Kind byte (mirrorDerived
// included). Decode targets are reused so stale state must be
// overwritten.
func TestWireAlignRefRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	var args AlignRefArgs
	var reply AlignRefReply
	for i := 0; i < 500; i++ {
		a := &AlignRefArgs{
			Queries: randWireIDs(rng), RefLo: int32(rng.Uint32()), RefHi: int32(rng.Uint32()),
			Paired: rng.Intn(2) == 0, Seqs: randWireSeqs(rng), Cfg: randWireConfig(rng),
		}
		a.Masked = randWireKeys(rng, a.Cfg.K)
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

// TestWireAlignRefCorrupt: truncations of either message must error, bit
// flips must never panic, and corrupt length prefixes — of the sequences,
// of the lists, of one list's records — must not cause huge allocations.
func TestWireAlignRefCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := &AlignRefArgs{
		Queries: []int32{2, 4, 6}, RefLo: 8, RefHi: 10, Paired: true,
		Seqs: [][]byte{[]byte("ACGTN"), []byte("GG"), []byte("TTTT")},
		Cfg:  randWireConfig(rng), Masked: []uint64{0, 1},
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

// TestWireMaskedKeys: the masked-key list of an AlignRef job decodes when
// it is absent, empty or ascending up to 4^K − 1, and is refused — an
// error, never a panic or a huge allocation — when its count passes the
// bytes left, when a key does not exceed the one before it (a zero gap, or
// one that wraps) and when a key is 4^K or more.
func TestWireMaskedKeys(t *testing.T) {
	a := &AlignRefArgs{Queries: []int32{0, 2}, RefLo: 2, RefHi: 4, Seqs: [][]byte{[]byte("ACGT"), []byte("GG"), []byte("TTA"), []byte("C")},
		Cfg: Config{K: 4, Step: 1, MinKmerHits: 2}}
	enc := a.AppendTo(nil)
	head := enc[:len(enc)-len(dist.AppendLen(nil, 0, false))] // everything before the list
	list := func(n int, gaps ...uint64) []byte {
		b := dist.AppendLen(slices.Clone(head), n, true)
		for _, g := range gaps {
			b = dist.AppendUvarint(b, g)
		}
		return b
	}
	for name, tc := range map[string]struct {
		frame []byte
		ok    bool
	}{
		"absent":          {enc, true},
		"empty":           {list(0), true},
		"ascending":       {list(3, 0, 7, 248), true},
		"count past data": {list(1000, 1), false},
		"huge count":      {list(1<<40, 1), false},
		"equal keys":      {list(2, 5, 0), false},
		"wrapping gap":    {list(2, 5, math.MaxUint64), false},
		"key past 4^K":    {list(2, 3, 253), false},
	} {
		var got AlignRefArgs
		if err := got.DecodeFrom(tc.frame); (err == nil) != tc.ok {
			t.Errorf("%s: decode err %v, want ok %v", name, err, tc.ok)
		}
	}
}

// TestAlignRefReplyCompact: every list AlignRef answers, on the D1–D3
// analogues paired (preprocessing's AddReverse) and unpaired at 1, 4 and 7
// subsets, ships with no record escaped and decodes against the master's
// read lengths to the records sent; on the paired input a reply costs at
// most 5 bytes a shipped record, headers included.
func TestAlignRefReplyCompact(t *testing.T) {
	cfg := testConfig()
	for d := 1; d <= 3; d++ {
		for _, paired := range []bool{true, false} {
			reads := paperReads(t, d, paired)
			for _, subsets := range []int{1, 4, 7} {
				subs := splitSubsets(reads, subsets)
				masked := repeatKeys(readSeqs(reads), cfg.K, subs[0].paired, cfg.MaxOccur, 0)
				bounds := make([]int32, subsets+1)
				for s, sub := range subs {
					bounds[s+1] = bounds[s] + int32(len(sub.ids))
				}
				records, size := 0, 0
				for _, j := range refJobs(subsets, 1) {
					var sent AlignRefReply
					if err := AlignRef(j.args(subs, bounds, subs[0].paired, cfg, masked), &sent); err != nil {
						t.Fatal(err)
					}
					for i, l := range sent.Lists {
						if _, escapes := appendList(nil, l, sent.Lengths); escapes != 0 {
							t.Fatalf("D%d paired %v subsets %d pair (%d,%d): %d of %d records escaped", d, paired, subsets, j.q0+i, j.r, escapes, len(l))
						}
						records += len(l)
					}
					enc := sent.AppendTo(nil)
					size += len(enc)
					got := AlignRefReply{Lengths: readLengths(reads)}
					if err := got.DecodeFrom(enc); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Lists, sent.Lists) {
						t.Fatalf("D%d paired %v subsets %d job %+v: the lists did not round-trip", d, paired, subsets, j)
					}
				}
				if records == 0 {
					t.Fatalf("D%d paired %v subsets %d: no records", d, paired, subsets)
				}
				t.Logf("D%d paired %v subsets %d: %d records, %.2f B/record", d, paired, subsets, records, float64(size)/float64(records))
				if paired && size > 5*records {
					t.Fatalf("D%d subsets %d: %d bytes for %d records", d, subsets, size, records)
				}
			}
		}
	}
}
