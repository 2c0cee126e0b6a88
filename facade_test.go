package focus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"focus/internal/assembly"
	"focus/internal/checkpoint"
	"focus/internal/dist"
)

// TestAssembleOnPool covers the externally-managed-pool entry point.
func TestAssembleOnPool(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 300)
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, stages, err := AssembleOnPool(reads, testConfig(), 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumContigs == 0 || stages.Hyb == nil {
		t.Fatalf("result %+v", res.Stats)
	}
}

// TestBuildStagesOnPoolMatchesLocal: the distributed-alignment facade
// yields the same stages as the local one.
func TestBuildStagesOnPoolMatchesLocal(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 301)
	cfg := testConfig()
	local, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	remote, err := BuildStagesOnPool(reads, cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Records) != len(local.Records) {
		t.Fatalf("records: %d vs %d", len(remote.Records), len(local.Records))
	}
	for i := range local.Records {
		if remote.Records[i] != local.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if remote.Hyb.G.NumNodes() != local.Hyb.G.NumNodes() {
		t.Fatalf("hybrid nodes: %d vs %d", remote.Hyb.G.NumNodes(), local.Hyb.G.NumNodes())
	}
}

// TestStatefulProtocolThroughFacade: the delta protocol on in-process
// workers yields the contigs the master alone (nil pool) yields, through
// the public API.
func TestStatefulProtocolThroughFacade(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 302)
	a, s, err := Assemble(reads, testConfig(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Assemble(nil, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contigs) != len(b.Contigs) {
		t.Fatalf("contigs: %d vs %d", len(a.Contigs), len(b.Contigs))
	}
	for i := range a.Contigs {
		if !bytes.Equal(a.Contigs[i], b.Contigs[i]) {
			t.Fatalf("contig %d differs between the workers and the master", i)
		}
	}
}

// TestCheckpointResumeThroughFacade is the kill-master integration test:
// a checkpointed run is "killed" by discarding its newest checkpoint (so
// the directory holds only the state after two of three phases), then a
// fresh master resumes with -resume semantics and must emit contigs
// byte-identical to an uninterrupted run.
func TestCheckpointResumeThroughFacade(t *testing.T) {
	reads, _ := simReads(t, 3500, 7, 304)
	dir := t.TempDir()

	runPool := func(s *Stages, k int) *AssemblyResult {
		t.Helper()
		pool, err := dist.NewLocalPool(2, assembly.NewService)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		res, err := s.Assemble(pool, k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Baseline: uninterrupted, no checkpointing.
	base, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := runPool(base, 2)

	// Checkpointed run. It completes, leaving one checkpoint per phase
	// boundary; deleting the last reproduces the on-disk state of a
	// master killed between the second and third phases.
	cfg := testConfig()
	cfg.Checkpoint = Checkpoint{Dir: dir}
	ckRun, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runPool(ckRun, 2)
	if err := os.Remove(filepath.Join(dir, checkpoint.Name(3))); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh process image. The partitioning (and k itself)
	// must come from the checkpoint: pass a wrong k to prove it.
	cfg.Checkpoint.Resume = true
	resumed, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runPool(resumed, 8)

	if len(got.Contigs) != len(want.Contigs) {
		t.Fatalf("contigs after resume: %d, want %d", len(got.Contigs), len(want.Contigs))
	}
	for i := range want.Contigs {
		if !bytes.Equal(got.Contigs[i], want.Contigs[i]) {
			t.Fatalf("contig %d differs after resume", i)
		}
	}
	if got.Trim.TransitiveEdges != want.Trim.TransitiveEdges ||
		got.Trim.ContainedNodes != want.Trim.ContainedNodes ||
		got.Trim.FalseEdges != want.Trim.FalseEdges ||
		got.Trim.DeadEndNodes != want.Trim.DeadEndNodes {
		t.Fatalf("trim counters after resume: %+v, want %+v", got.Trim, want.Trim)
	}

	// Resume with an empty directory is a fresh run, not an error.
	cfg.Checkpoint = Checkpoint{Dir: t.TempDir(), Resume: true}
	fresh, err := BuildStages(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := runPool(fresh, 2); len(res.Contigs) != len(want.Contigs) {
		t.Fatalf("fresh -resume run: %d contigs, want %d", len(res.Contigs), len(want.Contigs))
	}
}

// stageBuilders returns the three exported stage builders over the same
// reads, each reduced to a func of the config: local overlap, overlap on
// a two-worker pool, and records precomputed with recCfg.
func stageBuilders(t *testing.T, reads []Read, recCfg Config) map[string]func(Config) (*Stages, error) {
	t.Helper()
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	base := &Stages{} // stays empty when recCfg itself fails to build
	if s, err := BuildStages(reads, recCfg); err == nil {
		base = s
	}
	return map[string]func(Config) (*Stages, error){
		"BuildStages":       func(cfg Config) (*Stages, error) { return BuildStages(reads, cfg) },
		"BuildStagesOnPool": func(cfg Config) (*Stages, error) { return BuildStagesOnPool(reads, cfg, pool) },
		"BuildStagesFromRecords": func(cfg Config) (*Stages, error) {
			return BuildStagesFromRecords(reads, base.Records, len(base.Reads), cfg)
		},
	}
}

// pollCancelCtx cancels itself on its nth Err poll. The stage builder
// polls Err exactly once before each stage and preprocessing never looks
// at the context, so n=2 lands the cancel deterministically between the
// preprocess and overlap stages.
type pollCancelCtx struct {
	context.Context
	polls  atomic.Int32
	n      int32
	cancel func()
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestBuildStagesCancelBetweenStages: a cancel that lands between two
// stages stops all three builders at the same boundary with the caller's
// typed cause.
func TestBuildStagesCancelBetweenStages(t *testing.T) {
	reads, _ := simReads(t, 3000, 4, 304)
	cause := fmt.Errorf("cancel after preprocess: %w", context.Canceled)
	var msgs []string
	for name, build := range stageBuilders(t, reads, testConfig()) {
		parent, cancel := context.WithCancelCause(context.Background())
		cfg := testConfig()
		cfg.Context = &pollCancelCtx{Context: parent, n: 2, cancel: func() { cancel(cause) }}
		_, err := build(cfg)
		cancel(nil)
		if !errors.Is(err, cause) || !IsInterrupted(err) {
			t.Fatalf("%s: err = %v, want the cancellation cause", name, err)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("builders disagree on the cancellation error: %q", msgs)
		}
	}
}

// TestBuildStagesErrorPaths covers facade validation and pins how its
// errors read: the facade and the failed stage named once each, whether or
// not the layer below names itself.
func TestBuildStagesErrorPaths(t *testing.T) {
	// Preprocessing drops everything -> error.
	cfg := testConfig()
	cfg.Preprocess.MinLen = 10_000
	reads, _ := simReads(t, 3000, 4, 303)
	for name, build := range stageBuilders(t, reads, cfg) {
		if _, err := build(cfg); err == nil || err.Error() != "focus: preprocess: no reads survived preprocessing" {
			t.Errorf("%s: empty post-preprocess read set: err = %v", name, err)
		}
	}
	// The overlap layer names itself; the facade does not name it again.
	cfg = testConfig()
	cfg.Overlap.K = 0
	for name, build := range stageBuilders(t, reads, testConfig()) {
		if name == "BuildStagesFromRecords" {
			continue // runs no overlap stage
		}
		if _, err := build(cfg); err == nil || err.Error() != "focus: overlap: k=0 out of range" {
			t.Errorf("%s: k=0: err = %v", name, err)
		}
	}
	// Invalid record count in BuildStagesFromRecords.
	if _, err := BuildStagesFromRecords(reads, nil, 7, testConfig()); err == nil {
		t.Error("wrong numReads accepted")
	}
	// Partitioning k not a power of two surfaces from PartitionHybrid.
	s, err := BuildStages(reads, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PartitionHybrid(3, 1, 1); err == nil {
		t.Error("k=3 accepted")
	}
	if _, _, err := s.PartitionMultilevel(0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	pool, err := dist.NewLocalPool(2, assembly.NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := s.Assemble(pool, 3, 2, 1); err == nil || err.Error() != "focus: partition: k=3 is not a power of two" {
		t.Errorf("Assemble with 3 partitions: err = %v", err)
	}
}
