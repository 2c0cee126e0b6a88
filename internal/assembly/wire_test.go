package assembly

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"testing"
	"time"

	"focus/internal/dist"
)

// Randomized value generators for the Wire property test. They cover the
// encoding's edge cases on purpose: nil vs empty slices, absent contigs,
// N/lowercase/separator bytes in sequences, and ids at the int32 extremes
// (the delta coder's worst case).

func randIDs(rng *rand.Rand) []int32 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	ids := make([]int32, rng.Intn(20))
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

func randContig(rng *rand.Rand) []byte {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	alphabet := []byte("ACGTACGTACGTN#acgt")
	c := make([]byte, rng.Intn(60))
	for i := range c {
		c[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return c
}

func randEdges(rng *rand.Rand) []Edge {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []Edge{}
	}
	es := make([]Edge, rng.Intn(15))
	for i := range es {
		es[i] = Edge{
			From: int32(rng.Uint32()), To: int32(rng.Uint32()),
			Diag: int32(rng.Uint32()), Len: int32(rng.Uint32()),
			Ident: rng.Float32(), Contain: rng.Intn(2) == 0,
		}
	}
	return es
}

func randEdgePairs(rng *rand.Rand) []EdgePair {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []EdgePair{}
	}
	ps := make([]EdgePair, rng.Intn(15))
	for i := range ps {
		ps[i] = EdgePair{From: int32(rng.Uint32()), To: int32(rng.Uint32())}
	}
	return ps
}

func randPaths(rng *rand.Rand) [][]int32 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return [][]int32{}
	}
	paths := make([][]int32, rng.Intn(8))
	for i := range paths {
		paths[i] = randIDs(rng)
	}
	return paths
}

func randVariants(rng *rand.Rand) []Variant {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []Variant{}
	}
	vs := make([]Variant, rng.Intn(6))
	for i := range vs {
		vs[i] = Variant{
			From: int32(rng.Uint32()), To: int32(rng.Uint32()),
			AlleleA: int32(rng.Uint32()), AlleleB: int32(rng.Uint32()),
			CovA: rng.Int63() - rng.Int63(), CovB: rng.Int63(),
			LenA: int32(rng.Uint32()), LenB: int32(rng.Uint32()),
			Identity: rng.Float64(), Mismatches: int32(rng.Uint32()),
			Kind: VariantKind(rng.Intn(256)), Reconverges: rng.Intn(2) == 0,
		}
	}
	return vs
}

func randSubgraph(rng *rand.Rand) Subgraph {
	s := Subgraph{Part: int32(rng.Uint32()), Local: randIDs(rng), Edges: randEdges(rng)}
	switch rng.Intn(8) {
	case 0:
		s.Nodes = nil
	case 1:
		s.Nodes = []WireNode{}
	default:
		s.Nodes = make([]WireNode, rng.Intn(10))
		for i := range s.Nodes {
			s.Nodes[i] = WireNode{
				ID: int32(rng.Uint32()), Part: int32(rng.Uint32()),
				Weight: rng.Int63() - rng.Int63(), Contig: randContig(rng),
			}
		}
	}
	return s
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randConfig(rng *rand.Rand) Config {
	return Config{
		MinEdgeOverlap: rng.Intn(1000) - 500, MinEdgeIdentity: rng.Float64(),
		Band: rng.Intn(100), DiagTolerance: rng.Intn(100),
		MaxTipNodes: rng.Intn(10), MinTipLen: rng.Intn(1000),
		RPCRetries: rng.Intn(5), Stateful: rng.Intn(2) == 0,
		Workers: rng.Intn(16),
	}
}

func randVariantConfig(rng *rand.Rand) VariantConfig {
	return VariantConfig{
		MinBranchCov: rng.Int63n(100), MaxLenDiff: rng.Intn(20),
		Band: rng.Intn(64), MinIdentity: rng.Float64(),
	}
}

// rtWire round-trips v through its Wire encoding into fresh (a pointer to
// a zero or previously-used value of the same type) and requires exact
// reflect.DeepEqual equality.
func rtWire(t *testing.T, v, fresh dist.Wire) {
	t.Helper()
	enc := v.AppendTo(nil)
	if err := fresh.DecodeFrom(enc); err != nil {
		t.Fatalf("%T decode: %v\nvalue: %+v", v, err, v)
	}
	if !reflect.DeepEqual(v, fresh) {
		t.Fatalf("%T round trip diverged:\nsent %+v\ngot  %+v", v, v, fresh)
	}
}

// TestWireRoundTripProperty round-trips 1000 randomized values across
// every Wire payload type of the assembly service. Decode targets are
// REUSED across iterations, so stale fields from a previous decode must
// be fully overwritten — exactly what the codec does when net/rpc reuses
// reply values.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var (
		pa  PhaseArgs
		va  VariantArgs
		er  EdgeReply
		rr  RemovalReply
		pr  PathsReply
		vr  VariantsReply
		la  LoadArgs
		lr  LoadReply
		pas PhaseArgsStateful
		prs PhaseReplyStateful
	)
	for i := 0; i < 100; i++ {
		rtWire(t, &PhaseArgs{Sub: randSubgraph(rng), Cfg: randConfig(rng)}, &pa)
		rtWire(t, &VariantArgs{Sub: randSubgraph(rng), Cfg: randVariantConfig(rng)}, &va)
		rtWire(t, &EdgeReply{Edges: randEdgePairs(rng)}, &er)
		rtWire(t, &RemovalReply{Removal: Removal{Nodes: randIDs(rng), Edges: randEdgePairs(rng)}}, &rr)
		rtWire(t, &PathsReply{Paths: randPaths(rng)}, &pr)
		rtWire(t, &VariantsReply{Variants: randVariants(rng)}, &vr)
		rtWire(t, &LoadArgs{RunID: randString(rng), Sub: randSubgraph(rng), Cfg: randConfig(rng), Epoch: rng.Int63()}, &la)
		rtWire(t, &LoadReply{Nodes: rng.Intn(1000), Edges: rng.Intn(1000)}, &lr)
		rtWire(t, &PhaseArgsStateful{
			RunID: randString(rng), Part: int32(rng.Uint32()), Phase: randString(rng),
			Epoch: rng.Int63(),
			Delta: Delta{RemovedNodes: randIDs(rng), RemovedEdges: randEdgePairs(rng)},
			Cfg:   randConfig(rng), VCfg: randVariantConfig(rng),
		}, &pas)
		rtWire(t, &PhaseReplyStateful{
			Edges:   randEdgePairs(rng),
			Removal: Removal{Nodes: randIDs(rng), Edges: randEdgePairs(rng)},
			Paths:   randPaths(rng), Variants: randVariants(rng),
		}, &prs)
	}
}

// TestWireDecodeCorruptFrames feeds truncated and bit-flipped encodings
// to the decoders: they must error (or decode something) without
// panicking or allocating absurdly — never trust the wire.
func TestWireDecodeCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	args := &PhaseArgs{Sub: randSubgraph(rng), Cfg: randConfig(rng)}
	enc := args.AppendTo(nil)
	var dst PhaseArgs
	for cut := 0; cut < len(enc); cut += 3 {
		if dst.DecodeFrom(enc[:cut]) == nil && cut < len(enc) {
			t.Fatalf("truncated frame (%d/%d bytes) decoded cleanly", cut, len(enc))
		}
	}
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		_ = dst.DecodeFrom(mut) // must not panic; errors are fine
	}
}

// TestWireCodecEquivalence is the acceptance check for the codec and the
// parallel extractor: the full trim+traverse+contigs outcome must be
// identical across pool sizes 1/2/8, gob vs binary codec, and serial vs
// parallel subgraph extraction.
func TestWireCodecEquivalence(t *testing.T) {
	const k = 8
	baseline := func() runOutcome {
		pool, err := dist.NewLocalPoolOpts(1, NewService, dist.Options{Codec: dist.CodecGob, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		d := chaosPipeline(t, pool, k, false)
		d.extractWorkers = 1
		out, err := fullRun(t, d)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()

	for _, workers := range []int{1, 2, 8} {
		for _, codec := range []dist.Codec{dist.CodecGob, dist.CodecBinary} {
			for _, ew := range []int{1, 8} {
				pool, err := dist.NewLocalPoolOpts(workers, NewService, dist.Options{Codec: codec, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				d := chaosPipeline(t, pool, k, false)
				d.extractWorkers = ew
				got, err := fullRun(t, d)
				pool.Close()
				if err != nil {
					t.Fatalf("workers=%d codec=%d extract=%d: %v", workers, codec, ew, err)
				}
				if !reflect.DeepEqual(got, baseline) {
					t.Fatalf("workers=%d codec=%d extract=%d diverged:\ngot  %+v\nwant %+v",
						workers, codec, ew, got, baseline)
				}
			}
		}
	}

	// The stateful delta protocol must agree across codecs too.
	for _, codec := range []dist.Codec{dist.CodecGob, dist.CodecBinary} {
		pool, err := dist.NewLocalPoolOpts(2, NewService, dist.Options{Codec: codec, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		got, err := fullRun(t, chaosPipeline(t, pool, k, true))
		pool.Close()
		if err != nil {
			t.Fatalf("stateful codec=%d: %v", codec, err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("stateful codec=%d diverged:\ngot  %+v\nwant %+v", codec, got, baseline)
		}
	}
}

// TestWireSubgraphsSerialParallel: the exported parallel extractor is
// deterministic — same Subgraphs, and byte-identical encodings, at any
// worker count.
func TestWireSubgraphsSerialParallel(t *testing.T) {
	genome := randGenome(17, 2500)
	reads := tilingReads(genome, 100, 30)
	const k = 8
	dg, labels, _ := buildPipeline(t, reads, k)

	serial := Subgraphs(dg, labels, k, 1)
	for _, workers := range []int{2, 8} {
		par := Subgraphs(dg, labels, k, workers)
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("parallel extraction (workers=%d) diverged from serial", workers)
		}
		for i := range par {
			a := appendSubgraph(nil, &serial[i])
			b := appendSubgraph(nil, &par[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("partition %d: encoding differs between serial and workers=%d", i, workers)
			}
		}
	}
}

// TestWireGobWorkerCrossVersion is the satellite-c mixed-version check: a
// binary-preferring master (CodecAuto) against an old-style gob-only
// worker falls back cleanly and the assembly run matches the baseline.
func TestWireGobWorkerCrossVersion(t *testing.T) {
	const k = 4
	want := healthyBaseline(t, k)

	rpcSrv := rpc.NewServer()
	if err := rpcSrv.RegisterName(dist.ServiceName, NewService()); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go rpcSrv.ServeConn(conn) // plain gob, no handshake sniffing
		}
	}()

	pool, err := dist.DialPoolOpts([]string{lis.Addr().String()},
		dist.Options{HandshakeTimeout: 250 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("CodecAuto dial against gob-only worker: %v", err)
	}
	defer pool.Close()

	got, err := fullRun(t, chaosPipeline(t, pool, k, false))
	if err != nil {
		t.Fatalf("run over gob fallback failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gob-fallback run diverged:\ngot  %+v\nwant %+v", got, want)
	}
}
