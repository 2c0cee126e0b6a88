package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	focus "focus"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/dna"
	"focus/internal/simulate"
)

// testTemplate mirrors the facade tests' small-input configuration.
func testTemplate() focus.Config {
	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = 6 // strip the simulated adapter
	cfg.Subsets = 2
	cfg.Coarsen.MinNodes = 8
	return cfg
}

// writeInput simulates a small read set and persists it as FASTQ (qualities
// included — preprocessing is quality-driven) for jobs to load by path.
func writeInput(t *testing.T, genomeLen int, coverage float64, seed int64) string {
	t.Helper()
	com, err := simulate.BuildCommunity(simulate.SingleGenome("t", genomeLen, seed))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: coverage,
		ErrorRate5: 0.001, ErrorRate3: 0.01,
		Seed: seed + 1, AdapterLen: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("reads-%d.fastq", seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dna.WriteFASTQ(f, rs.Reads); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// soloBaseline assembles the input on a private single-tenant pool — the
// byte-identity reference every multi-tenant run is compared against.
func soloBaseline(t *testing.T, input string, k int) [][]byte {
	t.Helper()
	reads, err := dna.ReadsFromFile(input)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := focus.Assemble(reads, testTemplate(), k, 2)
	if err != nil {
		t.Fatalf("solo baseline: %v", err)
	}
	return res.Contigs
}

// newFleet builds an in-process worker fleet closed at test end.
func newFleet(t *testing.T, n int, opt dist.Options) *dist.Pool {
	t.Helper()
	pool, err := dist.NewLocalPoolOpts(n, assembly.NewService, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// waitState polls until the job reaches state (failing fast on an
// unexpected terminal state).
func waitState(t *testing.T, s *Server, id string, state State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q) while waiting for %s", id, st.State, st.Error, state)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameContigs compares two contig sets byte-for-byte.
func sameContigs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}
