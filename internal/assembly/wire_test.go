package assembly

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// randConfig returns random scan parameters, the fields a Config ships.
func randConfig(rng *rand.Rand) Config {
	return Config{
		MinEdgeOverlap: rng.Intn(1000) - 500, MinEdgeIdentity: rng.Float64(),
		Band: rng.Intn(100), DiagTolerance: rng.Intn(100),
		MaxTipNodes: rng.Intn(10), MinTipLen: rng.Intn(1000),
	}
}

// rtWire round-trips v through its Wire encoding into fresh (a pointer to
// a zero or previously-used value of the same type) and requires exact
// reflect.DeepEqual equality.
func rtWire(t *testing.T, v, fresh dist.Wire) {
	t.Helper()
	decodeEqual(t, v.AppendTo(nil), v, fresh)
}

// rtWireCfg is rtWire for a message carrying the scan config *sent: the
// message is encoded with the master-side field set, decoded into a
// target whose config *got holds a stale one, and must arrive with it
// zero — a worker's answer never depends on it.
func rtWireCfg(t *testing.T, v, fresh dist.Wire, sent, got *Config) {
	t.Helper()
	sent.Stateful, got.Stateful = true, true
	enc := v.AppendTo(nil)
	sent.Stateful = false
	decodeEqual(t, enc, v, fresh)
}

// decodeEqual decodes enc into fresh and requires it DeepEqual to v.
func decodeEqual(t *testing.T, enc []byte, v, fresh dist.Wire) {
	t.Helper()
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
		la LoadArgs
		pa PhaseArgs
		pr PhaseReply
	)
	for i := 0; i < 100; i++ {
		rtWire(t, &LoadArgs{Sub: randSubgraph(rng)}, &la)
		phase := &PhaseArgs{
			Part: int32(rng.Uint32()), Phase: randString(rng),
			Delta: Delta{RemovedNodes: randIDs(rng), RemovedEdges: randEdgePairs(rng)},
			Cfg:   randConfig(rng),
		}
		rtWireCfg(t, phase, &pa, &phase.Cfg, &pa.Cfg)
		rtWire(t, &PhaseReply{
			Edges:   randEdgePairs(rng),
			Removal: Removal{Nodes: randIDs(rng), Edges: randEdgePairs(rng)},
			Paths:   randPaths(rng),
		}, &pr)
	}
}

// TestWireDecodeCorruptFrames feeds truncated and bit-flipped encodings
// to the decoders: they must error (or decode something) without
// panicking or allocating absurdly — never trust the wire.
func TestWireDecodeCorruptFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	args := &LoadArgs{Sub: randSubgraph(rng)}
	enc := args.AppendTo(nil)
	var dst LoadArgs
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
// parallel extractor: the full trim+traverse+contigs outcome over the
// wire, at pool sizes 1/2/8, must equal the pool-less local run — where
// no byte is encoded — with serial and parallel subgraph extraction.
func TestWireCodecEquivalence(t *testing.T) {
	const k = 8
	baseline, err := fullRun(t, chaosPipeline(t, nil, k))
	if err != nil {
		t.Fatal(err)
	}
	d := chaosPipeline(t, nil, k)
	d.extractWorkers = 1
	if got, err := fullRun(t, d); err != nil || !reflect.DeepEqual(got, baseline) {
		t.Fatalf("serial extraction diverged (%v):\ngot  %+v\nwant %+v", err, got, baseline)
	}

	for _, workers := range []int{1, 2, 8} {
		pool, err := dist.NewLocalPoolOpts(workers, NewService, dist.Options{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		d := chaosPipeline(t, pool, k)
		got, err := fullRun(t, d)
		pool.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d.localOnly {
			t.Fatalf("workers=%d ran locally, not over the wire", workers)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("workers=%d diverged:\ngot  %+v\nwant %+v", workers, got, baseline)
		}
	}
}

// TestServiceRPCSurface pins the worker's RPC methods: a new per-phase
// method is a wire change, to be made on purpose (every phase goes
// through Phase), and a worker does not align reads: the overlap stage
// runs on the master's cores.
func TestServiceRPCSurface(t *testing.T) {
	errType := reflect.TypeOf((*error)(nil)).Elem()
	var got []string
	st := reflect.TypeOf(&Service{})
	for i := 0; i < st.NumMethod(); i++ {
		m := st.Method(i).Type // receiver, args, reply → error: net/rpc's shape
		if m.NumIn() == 3 && m.In(2).Kind() == reflect.Pointer && m.NumOut() == 1 && m.Out(0) == errType {
			got = append(got, st.Method(i).Name)
		}
	}
	want := []string{"Load", "Phase", "Ping"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker RPC methods = %v, want %v", got, want)
	}
}

// subgraphsOf extracts the wire view of every partition of g under
// labels, as the Driver ships them in Load.
func subgraphsOf(g *DiGraph, labels []int32, k, workers int) []Subgraph {
	parts := make([][]int32, k)
	for v := 0; v < g.NumNodes(); v++ {
		if !g.Removed[v] {
			parts[labels[v]] = append(parts[labels[v]], int32(v))
		}
	}
	return (&extractor{g: g, labels: labels}).subgraphs(parts, workers, nil)
}

// TestWireSubgraphsSerialParallel: the parallel extractor is
// deterministic — same Subgraphs, and byte-identical encodings, at any
// worker count.
func TestWireSubgraphsSerialParallel(t *testing.T) {
	genome := randGenome(17, 2500)
	reads := tilingReads(genome, 100, 30)
	const k = 8
	dg, labels, _ := buildPipeline(t, reads, k)

	serial := subgraphsOf(dg, labels, k, 1)
	for _, workers := range []int{2, 8} {
		par := subgraphsOf(dg, labels, k, workers)
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

// wireSamples returns one fixed, fully-populated value of every message
// type that crosses the wire, in a fixed order. Every shipped field is
// non-zero and every slice non-empty, so a field added, dropped, reordered
// or re-coded changes the bytes; the configs' master-side fields, which
// never ship, stay zero.
func wireSamples() []struct {
	name string
	msg  dist.Wire
} {
	sub := Subgraph{
		Part:  3,
		Local: []int32{10, 11, 15},
		Nodes: []WireNode{
			{ID: 10, Part: 3, Weight: 7, Contig: []byte("ACGTTGCA")},
			{ID: 11, Part: 3, Weight: 2, Contig: []byte("GGNAC#acgt")},
			{ID: 15, Part: 1, Weight: -4, Contig: []byte{}},
			{ID: 90, Part: 2, Weight: 1 << 40},
		},
		Edges: []Edge{
			{From: 10, To: 11, Diag: 42, Len: 58, Ident: 0.9375, Contain: false},
			{From: 10, To: 90, Diag: -3, Len: 61, Ident: 1, Contain: true},
			{From: 15, To: 10, Diag: 7, Len: 50, Ident: 0.5},
		},
	}
	cfg := Config{MinEdgeOverlap: 50, MinEdgeIdentity: 0.9, Band: 16, DiagTolerance: 8,
		MaxTipNodes: 3, MinTipLen: 400}
	pairs := []EdgePair{{From: 10, To: 11}, {From: 15, To: 10}, {From: 15, To: 2}}
	removal := Removal{Nodes: []int32{11, 90, 4}, Edges: pairs[:2]}
	paths := [][]int32{{10, 11, 90}, {}, {15}}
	ack := dist.Ack(true)
	return []struct {
		name string
		msg  dist.Wire
	}{
		{"Ack", &ack},
		{"LoadArgs", &LoadArgs{Sub: sub}},
		{"PhaseArgs", &PhaseArgs{Part: 3, Phase: "Containment",
			Delta: Delta{RemovedNodes: []int32{90}, RemovedEdges: pairs[1:]}, Cfg: cfg}},
		{"PhaseReply", &PhaseReply{Edges: pairs, Removal: removal, Paths: paths}},
	}
}

// servedWireVersion learns the wire version the way a peer does: from the
// ack a worker writes first on every connection, whatever it was sent.
func servedWireVersion(t *testing.T) int {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := dist.NewServer(&Service{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var ack [8]byte
	if _, err := conn.Write(ack[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatalf("reading the worker's ack: %v", err)
	}
	if string(ack[:3]) != "FWB" || string(ack[4:]) != "!rpc" {
		t.Fatalf("worker's first write %q is not a handshake ack", ack[:])
	}
	return int(ack[3] - '0')
}

var blessWire = flag.Bool("bless-wire", false, "write testdata/wire_v<N>.golden for the current wire version if (and only if) it does not exist yet")

// TestWireSchemaPinned pins the bytes of every message against a golden
// file named for the wire version. The name is the lock: a change to any
// encoding fails here until dist's wireVersion is bumped, because
// -bless-wire refuses to overwrite the golden of a version that already
// has one — a mixed fleet then fails its handshake instead of mis-decoding
// shifted fields in the middle of a run.
func TestWireSchemaPinned(t *testing.T) {
	var got strings.Builder
	for _, s := range wireSamples() {
		enc := s.msg.AppendTo(nil)
		fresh := reflect.New(reflect.TypeOf(s.msg).Elem()).Interface().(dist.Wire)
		if err := fresh.DecodeFrom(enc); err != nil || !reflect.DeepEqual(fresh, s.msg) {
			t.Fatalf("%s sample does not round-trip (err %v)", s.name, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", s.name, len(enc), sha256.Sum256(enc))
	}
	version := servedWireVersion(t)
	path := filepath.Join("testdata", fmt.Sprintf("wire_v%d.golden", version))
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) && *blessWire {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s; delete the previous version's golden", path)
		return
	}
	if err != nil {
		t.Fatalf("no schema pin for wire version %d: %v (go test ./internal/assembly/ -run TestWireSchemaPinned -bless-wire writes it)", version, err)
	}
	if got.String() != string(want) {
		t.Fatalf("message encodings differ from %s — peers of wire version %d would mis-decode them.\n"+
			"Bump wireVersion in internal/dist/codec.go and bless the new version's golden (-bless-wire).\ngot:\n%swant:\n%s",
			path, version, got.String(), want)
	}
}
