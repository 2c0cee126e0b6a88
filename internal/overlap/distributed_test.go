package overlap

import (
	"reflect"
	"testing"
	"time"

	"focus/internal/dist"
)

// alignService exposes AlignPair for the distributed tests without
// importing the assembly package (which would cycle).
type alignService struct{}

func (s *alignService) AlignPair(args *AlignPairArgs, reply *AlignPairReply) error {
	reply.Records = AlignPair(args)
	return nil
}

func newAlignService() interface{} { return &alignService{} }

func TestFindOverlapsDistributedMatchesLocal(t *testing.T) {
	genome := randGenome(150, 2500)
	reads := tilingReads(genome, 100, 35)
	cfg := testConfig()

	for _, subsets := range []int{1, 3} {
		local, err := FindOverlaps(reads, subsets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := dist.NewLocalPool(2, newAlignService)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := FindOverlapsDistributed(pool, reads, subsets, cfg)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(remote) != len(local) {
			t.Fatalf("subsets=%d: %d distributed records vs %d local", subsets, len(remote), len(local))
		}
		for i := range local {
			if remote[i] != local[i] {
				t.Fatalf("subsets=%d record %d: %+v vs %+v", subsets, i, remote[i], local[i])
			}
		}
	}
}

func TestFindOverlapsDistributedValidation(t *testing.T) {
	pool, err := dist.NewLocalPool(1, newAlignService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := testConfig()
	cfg.K = 0
	if _, err := FindOverlapsDistributed(pool, nil, 2, cfg); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FindOverlapsDistributed(pool, nil, 0, testConfig()); err == nil {
		t.Error("0 subsets accepted")
	}
}

// TestFindOverlapsDistributedFallsBackWhenPoolDead checks graceful
// degradation: with every worker hung and evicted, the distributed mode
// completes locally and matches the local result.
func TestFindOverlapsDistributedFallsBackWhenPoolDead(t *testing.T) {
	genome := randGenome(152, 1200)
	reads := tilingReads(genome, 100, 40)
	cfg := testConfig()

	local, err := FindOverlaps(reads, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hang := dist.ChaosConfig{Seed: 9, FirstSafe: 1, HangProb: 1, HangFor: 2 * time.Second}
	pool, err := dist.NewLocalChaosPool(2, newAlignService, dist.Options{
		CallTimeout: 150 * time.Millisecond,
		MaxFailures: 1,
		Logf:        t.Logf,
	}, func(w int) *dist.ChaosConfig { c := hang; c.Seed += int64(w); return &c })
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote, err := FindOverlapsDistributed(pool, reads, 2, cfg)
	if err != nil {
		t.Fatalf("distributed mode did not fall back: %v", err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatalf("fallback records diverge from local: %d vs %d records", len(remote), len(local))
	}
}

func TestAlignPairDirect(t *testing.T) {
	genome := randGenome(151, 600)
	reads := tilingReads(genome, 100, 50)
	var ids []int32
	var seqs [][]byte
	for i, r := range reads {
		ids = append(ids, int32(i))
		seqs = append(seqs, r.Seq)
	}
	recs := AlignPair(&AlignPairArgs{
		RefIDs: ids, RefSeqs: seqs,
		QueryIDs: ids, QuerySeqs: seqs,
		Cfg: testConfig(),
	})
	// Consecutive reads overlap by 50 bp: all must be found.
	found := map[[2]int32]bool{}
	for _, r := range recs {
		found[[2]int32{r.A, r.B}] = true
	}
	for i := 0; i+1 < len(reads); i++ {
		if !found[[2]int32{int32(i), int32(i + 1)}] {
			t.Fatalf("missing overlap %d-%d", i, i+1)
		}
	}
}
