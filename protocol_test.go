package focus

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/metrics"
	"focus/internal/simulate"
)

// TestProtocolsAgree guards the assembly phases' execution paths on the
// D2 analogue at the benchmark's meta_tcp shape (scale 0.7, 8x coverage):
// at 4 and 16 partitions the master-only driver (nil pool), the delta
// protocol, the delta protocol with one worker lost mid-phase (its
// partitions re-hosted) and with every worker lost (the local fallback)
// give byte-identical contigs. The fault arms check from the metrics that
// the path they name was the one taken.
func TestProtocolsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the D2 analogue; skipped with -short")
	}
	spec, err := simulate.PaperDataSet(2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		t.Fatal(err)
	}
	rc := simulate.PaperReadConfig(2, 8)
	rc.Seed = 1
	rs, err := simulate.SimulateReads(com, rc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Preprocess.Trim5 = 8 // PaperReadConfig's adapter
	base, err := BuildStages(rs.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// hang wedges a worker's connection after `safe` responses (the
	// handshake ack is the first).
	hang := func(seed int64, safe int) *dist.ChaosConfig {
		return &dist.ChaosConfig{Seed: seed, FirstSafe: safe, HangProb: 1, HangFor: 2 * time.Second}
	}
	faulty := dist.Options{CallTimeout: 500 * time.Millisecond, MaxFailures: 1, Logf: t.Logf}
	for _, k := range []int{4, 16} {
		// Each of two workers answers the ack and its k/2 Loads, then a
		// few phase calls: the loss lands inside the transitive phase.
		safe := 1 + k/2 + 1
		arms := []struct {
			name  string
			pool  func() (*dist.Pool, error)
			check func(c map[string]int64) error
		}{
			{"local", func() (*dist.Pool, error) { return nil, nil }, nil},
			{"stateful", func() (*dist.Pool, error) { return dist.NewLocalPool(2, assembly.NewService) }, nil},
			{"rehost", func() (*dist.Pool, error) {
				return dist.NewLocalChaosPool(2, assembly.NewService, faulty, func(w int) *dist.ChaosConfig {
					if w == 1 {
						return hang(11, safe)
					}
					return nil
				})
			}, func(c map[string]int64) error {
				if c["assembly_partition_lost_total"] == 0 || c["assembly_rehost_total"] == 0 || c["assembly_degraded_total"] != 0 {
					return fmt.Errorf("want a lost partition re-hosted and no degradation, counters %v", c)
				}
				return nil
			}},
			{"fallback", func() (*dist.Pool, error) {
				return dist.NewLocalChaosPool(2, assembly.NewService, faulty, func(w int) *dist.ChaosConfig {
					return hang(13+int64(w), safe)
				})
			}, func(c map[string]int64) error {
				if c["assembly_degraded_total"] == 0 {
					return fmt.Errorf("want the run degraded to local execution, counters %v", c)
				}
				return nil
			}},
		}
		var want [][]byte
		for i, arm := range arms {
			pool, err := arm.pool()
			if err != nil {
				t.Fatal(err)
			}
			s := *base
			reg := metrics.NewRegistry()
			s.Cfg.Metrics = reg
			res, err := s.Assemble(pool, k, 2, 1)
			if pool != nil {
				pool.Close()
			}
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, arm.name, err)
			}
			if arm.check != nil {
				if err := arm.check(reg.Snapshot().Counters); err != nil {
					t.Fatalf("k=%d %s: %v", k, arm.name, err)
				}
			}
			if i == 0 {
				want = res.Contigs
				continue
			}
			if len(res.Contigs) != len(want) {
				t.Fatalf("k=%d %s: %d contigs, local driver %d", k, arm.name, len(res.Contigs), len(want))
			}
			for j := range want {
				if !bytes.Equal(res.Contigs[j], want[j]) {
					t.Fatalf("k=%d %s: contig %d differs from the local driver's", k, arm.name, j)
				}
			}
		}
	}
}
