package focus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
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
	res, stages, err := AssembleOnPool(reads, testConfig(), 2, pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumContigs == 0 || stages.Hyb == nil {
		t.Fatalf("result %+v", res.Stats)
	}
}

// TestBuildStagesOnPoolMatchesLocal: the deprecated pool builder yields
// the stages BuildStages does and sends no call to the pool: alignment
// runs on the master's cores.
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
	calls := pool.Completions()
	remote, err := BuildStagesOnPool(reads, cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	if n := pool.Completions() - calls; n != 0 {
		t.Fatalf("BuildStagesOnPool made %d calls on the pool, want none", n)
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

// TestCheckpointFreshRunRefusesFrames: a fresh run (Resume off) into a
// directory that already holds another run's frames fails before its
// first phase with ErrCheckpointFrames and leaves those frames as they
// were. Were it to run, its ckpt-1 would land beside the other run's
// ckpt-2 and ckpt-3, and a resume after a cut in its second phase would
// assemble the other run's graph.
func TestCheckpointFreshRunRefusesFrames(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Checkpoint = Checkpoint{Dir: dir}
	frames := func() map[string]string { return dirFiles(t, dir) }

	readsX, _ := simReads(t, 3500, 7, 304)
	x, err := BuildStages(readsX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Assemble(nil, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	before := frames()
	if len(before) != 3 {
		t.Fatalf("checkpointed run left %d files, want a frame per phase boundary (3)", len(before))
	}

	readsY, _ := simReads(t, 3500, 7, 305)
	y, err := BuildStages(readsY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = y.Assemble(nil, 2, 2, 1)
	if !errors.Is(err, ErrCheckpointFrames) {
		t.Fatalf("fresh run into a directory of frames: err = %v, want ErrCheckpointFrames", err)
	}
	for _, want := range []string{dir, "-resume", "empty directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if after := frames(); !maps.Equal(after, before) {
		t.Fatalf("refused run touched the directory: %d files before, %d after", len(before), len(after))
	}
}

// dirFiles returns the contents of dir's files by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestCheckpointResumeRefusesOtherInput: every frame carries the
// fingerprint of the input it was written for. A run cut after its second
// phase, resumed against another read set (two simulated data sets, as
// `readsim -dataset 1` frames resumed by a `-dataset 3` run) or against
// its own reads under another overlap identity, fails before its first
// phase with a *CheckpointInputError and leaves the frames as they were;
// resumed with only the subset count changed it is the same input and
// finishes with the uninterrupted run's contigs.
func TestCheckpointResumeRefusesOtherInput(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Checkpoint = Checkpoint{Dir: dir}
	readsX, _ := simReads(t, 3500, 7, 304)
	x, err := BuildStages(readsX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := x.Assemble(nil, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, checkpoint.Name(3))); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	cfg.Checkpoint.Resume = true
	readsY, _ := simReads(t, 3500, 7, 305)
	stricter := cfg
	stricter.Overlap.Align.MinIdentity = 0.92
	for _, tc := range []struct {
		name  string
		reads []Read
		cfg   Config
	}{{"other reads", readsY, cfg}, {"other identity", readsX, stricter}} {
		s, err := BuildStages(tc.reads, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Assemble(nil, 2, 2, 1)
		var ie *CheckpointInputError
		if !errors.As(err, &ie) || ie.Dir != dir || ie.Frames == ie.Run {
			t.Fatalf("%s: resume err = %v, want a *CheckpointInputError", tc.name, err)
		}
		if after := dirFiles(t, dir); !maps.Equal(after, before) {
			t.Fatalf("%s: refused resume touched the directory", tc.name)
		}
	}

	same := cfg
	same.Subsets = 3
	s, err := BuildStages(readsX, same)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Assemble(nil, 2, 2, 1)
	if err != nil {
		t.Fatalf("resume at another subset count: %v", err)
	}
	if len(got.Contigs) != len(want.Contigs) {
		t.Fatalf("contigs after resume: %d, want %d", len(got.Contigs), len(want.Contigs))
	}
	for i := range want.Contigs {
		if !bytes.Equal(got.Contigs[i], want.Contigs[i]) {
			t.Fatalf("contig %d differs after resume", i)
		}
	}
}

// stageBuilders returns the two exported stage builders over the same
// reads, each reduced to a func of the config: overlap computed, and
// records precomputed with recCfg.
func stageBuilders(t *testing.T, reads []Read, recCfg Config) map[string]func(Config) (*Stages, error) {
	t.Helper()
	base := &Stages{} // stays empty when recCfg itself fails to build
	if s, err := BuildStages(reads, recCfg); err == nil {
		base = s
	}
	return map[string]func(Config) (*Stages, error){
		"BuildStages": func(cfg Config) (*Stages, error) { return BuildStages(reads, cfg) },
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
// stages stops both builders at the same boundary with the caller's
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
