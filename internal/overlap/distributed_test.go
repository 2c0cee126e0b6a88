package overlap

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"focus/internal/dist"
)

// alignService exposes AlignPair for the distributed tests without
// importing the assembly package (which would cycle).
type alignService struct{}

func (s *alignService) AlignPair(args *AlignPairArgs, reply *AlignPairReply) error {
	var err error
	reply.Records, err = AlignPair(args)
	return err
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

// TestAlignPairRejectsMalformedJobs: requests no (q <= r) job produces —
// k out of range, a scoring past maxScore, ids and sequences of different
// counts, ids that are not one ascending run, a reference run starting
// before the query run — are errors; the job shapes the drivers do send
// (one subset against itself or a later one, an empty side) are not.
func TestAlignPairRejectsMalformedJobs(t *testing.T) {
	genome := randGenome(153, 400)
	// The second read drops a base, so its overlaps reach the DP kernel.
	seqs := [][]byte{genome[:100], append(slices.Clone(genome[50:90]), genome[91:151]...), genome[100:200], genome[150:250]}
	job := func(mut func(*AlignPairArgs)) *AlignPairArgs {
		a := &AlignPairArgs{
			RefIDs: []int32{12, 13}, RefSeqs: seqs[2:],
			QueryIDs: []int32{10, 11}, QuerySeqs: seqs[:2],
			Cfg: testConfig(),
		}
		mut(a)
		return a
	}
	for name, mut := range map[string]func(*AlignPairArgs){
		"k=0":              func(a *AlignPairArgs) { a.Cfg.K = 0 },
		"k=33":             func(a *AlignPairArgs) { a.Cfg.K = 33 },
		"huge match":       func(a *AlignPairArgs) { a.Cfg.Align.Scoring.Match = 1 << 40 },
		"huge gap":         func(a *AlignPairArgs) { a.Cfg.Align.Scoring.Gap = -(1 << 40) },
		"ref ids short":    func(a *AlignPairArgs) { a.RefIDs = a.RefIDs[:1] },
		"query seqs short": func(a *AlignPairArgs) { a.QuerySeqs = a.QuerySeqs[:1] },
		"gap in ids":       func(a *AlignPairArgs) { a.RefIDs = []int32{12, 14} },
		"descending ids":   func(a *AlignPairArgs) { a.QueryIDs = []int32{11, 10} },
		"wrapping ids":     func(a *AlignPairArgs) { a.QueryIDs = []int32{math.MaxInt32, math.MinInt32} },
		"refs first":       func(a *AlignPairArgs) { a.RefIDs, a.QueryIDs = a.QueryIDs, a.RefIDs },
	} {
		if recs, err := AlignPair(job(mut)); err == nil {
			t.Errorf("%s: accepted, %d records", name, len(recs))
		}
	}
	for name, mut := range map[string]func(*AlignPairArgs){
		"later subset": func(*AlignPairArgs) {},
		"same subset":  func(a *AlignPairArgs) { a.RefIDs, a.RefSeqs = a.QueryIDs, a.QuerySeqs },
		"no queries":   func(a *AlignPairArgs) { a.QueryIDs, a.QuerySeqs = nil, nil },
		"no refs":      func(a *AlignPairArgs) { a.RefIDs, a.RefSeqs = nil, nil },
		"huge band": func(a *AlignPairArgs) {
			a.RefIDs, a.RefSeqs, a.Cfg.Align.Band = a.QueryIDs, a.QuerySeqs, 1<<40
		},
	} {
		if _, err := AlignPair(job(mut)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
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
	recs, err := AlignPair(&AlignPairArgs{
		RefIDs: ids, RefSeqs: seqs,
		QueryIDs: ids, QuerySeqs: seqs,
		Cfg: testConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
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
