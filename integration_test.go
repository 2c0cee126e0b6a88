package focus

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/dna"
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
	if s2.G0.NumNodes() != s1.G0.NumNodes() || s2.G0.NumEdges() != s1.G0.NumEdges() {
		t.Fatalf("graphs differ: %d/%d vs %d/%d nodes/edges",
			s2.G0.NumNodes(), s2.G0.NumEdges(), s1.G0.NumNodes(), s1.G0.NumEdges())
	}
	if s2.Hyb.G.NumNodes() != s1.Hyb.G.NumNodes() {
		t.Fatalf("hybrid graphs differ: %d vs %d nodes", s2.Hyb.G.NumNodes(), s1.Hyb.G.NumNodes())
	}
	// Mismatched read count is rejected.
	if _, err := BuildStagesFromRecords(reads[:len(reads)-5], recs, numReads, cfg); err == nil {
		t.Error("read-count mismatch accepted")
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
		go func() { _ = dist.Serve(lis, &assembly.Service{}) }()
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

// TestVariantCallingThroughFacade: two strains with a divergent segment
// produce at least one variant call via the public API.
func TestVariantCallingThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const genomeLen, site, segLen = 9000, 4500, 120
	strainA := make([]byte, genomeLen)
	for i := range strainA {
		strainA[i] = "ACGT"[rng.Intn(4)]
	}
	strainB := append([]byte(nil), strainA...)
	for i := site; i < site+segLen; i++ {
		strainA[i] = "ACGT"[rng.Intn(4)]
		strainB[i] = "ACGT"[rng.Intn(4)]
	}
	var reads []Read
	sample := func(strain []byte, tag string, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 10*len(strain)/100; i++ {
			pos := r.Intn(len(strain) - 100)
			seq := append([]byte(nil), strain[pos:pos+100]...)
			if r.Intn(2) == 1 {
				dna.ReverseComplementInPlace(seq)
			}
			reads = append(reads, Read{ID: fmt.Sprintf("%s_%d", tag, i), Seq: seq})
		}
	}
	sample(strainA, "A", 11)
	sample(strainB, "B", 12)

	cfg := DefaultConfig()
	cfg.CallVariants = true
	res, _, err := Assemble(reads, cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) == 0 {
		t.Fatal("no variants called for a two-strain mixture")
	}
	// The call must reflect the planted segment: alleles supported by
	// multiple reads on both branches.
	found := false
	for _, v := range res.Variants {
		if v.CovA >= 2 && v.CovB >= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no well-supported variant: %+v", res.Variants)
	}
	// Without the flag, no variants are reported.
	cfg.CallVariants = false
	res2, _, err := Assemble(reads, cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Variants != nil {
		t.Error("variants reported without CallVariants")
	}
}
