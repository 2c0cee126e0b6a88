package focus

import (
	"bytes"
	"math/rand"
	"net"
	"slices"
	"testing"

	"focus/internal/assembly"
	"focus/internal/dist"
)

// TestBuildStagesFromRecords: the records of one run reproduce the same
// graphs in a later run without re-alignment.
func TestBuildStagesFromRecords(t *testing.T) {
	reads, _ := simReads(t, 4000, 6, 200)
	cfg := testConfig()
	s1, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, numReads := s1.Records, len(s1.Reads)
	s2, err := BuildStagesFromRecords(reads, recs, numReads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s1.MultilevelSet()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.MultilevelSet()
	if err != nil {
		t.Fatal(err)
	}
	if g1, g2 := m1.Levels[0], m2.Levels[0]; g2.NumNodes() != g1.NumNodes() || g2.NumEdges() != g1.NumEdges() {
		t.Fatalf("graphs differ: %d/%d vs %d/%d nodes/edges",
			g2.NumNodes(), g2.NumEdges(), g1.NumNodes(), g1.NumEdges())
	}
	if s2.Hyb.G.NumNodes() != s1.Hyb.G.NumNodes() {
		t.Fatalf("hybrid graphs differ: %d vs %d nodes", s2.Hyb.G.NumNodes(), s1.Hyb.G.NumNodes())
	}
	// Mismatched read count is rejected.
	if _, err := BuildStagesFromRecords(reads[:len(reads)-5], recs, numReads, cfg); err == nil {
		t.Error("read-count mismatch accepted")
	}
}

// TestBuildStagesFromShuffledRecords: records in any order give the
// Stages of the sorted list. Its Records are byte-identical to the sorted
// list's, written into a copy (the caller's slice is left as it was), and
// its contigs are the same.
func TestBuildStagesFromShuffledRecords(t *testing.T) {
	reads, _ := simReads(t, 4000, 6, 201)
	cfg := testConfig()
	s1, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(s1.Records)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	before := slices.Clone(shuffled)
	s2, err := BuildStagesFromRecords(reads, shuffled, len(s1.Reads), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s2.Records, s1.Records) {
		t.Fatal("Records from the shuffled list differ from the sorted list")
	}
	if !slices.Equal(shuffled, before) {
		t.Fatal("BuildStagesFromRecords reordered the caller's slice")
	}
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	r1, err := s1.Assemble(pool, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Assemble(pool, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameContigs(r1.Contigs, r2.Contigs) {
		t.Error("contigs from the shuffled records differ")
	}
}

// TestAssembleOverTCPMatchesInProcess: the same stages assembled over
// real TCP workers and over in-process workers give identical contigs.
func TestAssembleOverTCPMatchesInProcess(t *testing.T) {
	reads, _ := simReads(t, 4000, 7, 201)
	cfg := testConfig()

	var addrs []string
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		srv, err := dist.NewServer(&assembly.Service{})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(lis) }()
		addrs = append(addrs, lis.Addr().String())
	}
	tcpPool, err := dist.DialPool(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpPool.Close()

	run := func(pool *dist.Pool) *AssemblyResult {
		s, err := BuildStages(reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Assemble(pool, 4, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	localPool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer localPool.Close()

	a := run(localPool)
	b := run(tcpPool)
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Contigs) != len(b.Contigs) {
		t.Fatalf("contig counts differ: %d vs %d", len(a.Contigs), len(b.Contigs))
	}
	for i := range a.Contigs {
		if !bytes.Equal(a.Contigs[i], b.Contigs[i]) {
			t.Fatalf("contig %d differs between transports", i)
		}
	}
}
