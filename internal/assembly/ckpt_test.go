package assembly

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"focus/internal/checkpoint"
	"focus/internal/dist"
)

// TestCheckpointStateRoundTrip: the checkpoint payload codec reproduces
// the master graph exactly, including the rebuilt In adjacency.
func TestCheckpointStateRoundTrip(t *testing.T) {
	genome := randGenome(91, 3000)
	reads := tilingReads(genome, 100, 30)
	dg, labels, _ := buildPipeline(t, reads, 3)
	// Mutate so Removed flags and filtered adjacency are exercised.
	if n := dg.NumNodes(); n > 2 {
		dg.RemoveNode(int32(n / 2))
		if len(dg.Out[0]) > 0 {
			e := dg.Out[0][0]
			dg.RemoveEdge(e.From, e.To)
		}
	}
	cs := &CheckpointState{
		Fingerprint: 0xfedcba9876543210,
		Done:        []string{"Transitive", "Containment"},
		Stats:       TrimStats{TransitiveEdges: 7, ContainedNodes: 3, FalseEdges: 2, DeadEndNodes: 11},
		K:           3,
		Labels:      labels,
		Graph:       dg,
	}
	var got CheckpointState
	if err := got.DecodeFrom(cs.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Done, cs.Done) || got.Stats.TransitiveEdges != cs.Stats.TransitiveEdges ||
		got.Stats.ContainedNodes != cs.Stats.ContainedNodes || got.Stats.FalseEdges != cs.Stats.FalseEdges ||
		got.Stats.DeadEndNodes != cs.Stats.DeadEndNodes ||
		got.K != cs.K || !reflect.DeepEqual(got.Labels, cs.Labels) || got.Fingerprint != cs.Fingerprint {
		t.Fatal("metadata mismatch after round trip")
	}
	g2 := got.Graph
	if !reflect.DeepEqual(g2.Contigs, dg.Contigs) || !reflect.DeepEqual(g2.Weight, dg.Weight) ||
		!reflect.DeepEqual(g2.Removed, dg.Removed) || !reflect.DeepEqual(g2.Out, dg.Out) {
		t.Fatal("graph core mismatch after round trip")
	}
	// In is rebuilt, not shipped: it must match the mutated original
	// exactly (fresh In is sorted by From; removals preserve order).
	if !reflect.DeepEqual(g2.In, dg.In) {
		t.Fatal("rebuilt In adjacency differs from original")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupting the payload errors instead of panicking.
	enc := cs.AppendTo(nil)
	for _, n := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		var bad CheckpointState
		if err := bad.DecodeFrom(enc[:n]); err == nil {
			t.Fatalf("truncated payload (%d bytes) decoded without error", n)
		}
	}
}

// TestCheckpointResumeIdenticalOutput is the kill-master-and-resume
// acceptance test at the driver level: a run checkpointed at phase
// boundaries is killed after two phases; a fresh master resumes from the
// newest checkpoint and must produce byte-identical contigs and stats.
func TestCheckpointResumeIdenticalOutput(t *testing.T) {
	genome := randGenome(17, 4000)
	reads := tilingReads(genome, 100, 25)
	dir := t.TempDir()
	cfg := DefaultConfig()

	fullRun := func(d *Driver) ([][]byte, TrimStats) {
		t.Helper()
		var st TrimStats
		if err := d.TrimTransitive(&st); err != nil {
			t.Fatal(err)
		}
		if err := d.TrimContainment(&st); err != nil {
			t.Fatal(err)
		}
		if err := d.TrimErrors(&st); err != nil {
			t.Fatal(err)
		}
		paths, _, err := d.TraverseTimed()
		if err != nil {
			t.Fatal(err)
		}
		return d.BuildContigs(paths), st
	}

	// Baseline: uninterrupted run.
	dgA, labelsA, _ := buildPipeline(t, reads, 4)
	poolA, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	dA, err := NewDriver(poolA, dgA, labelsA, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantContigs, wantStats := fullRun(dA)
	dA.Close()
	poolA.Close()

	// Checkpointed run, killed after two phases: the driver (and its
	// pool — the whole master process) simply stops being used.
	dgB, labelsB, _ := buildPipeline(t, reads, 4)
	poolB, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := NewDriver(poolB, dgB, labelsB, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dB.EnableCheckpoint(dir, 0x5eed)
	var stB TrimStats
	if err := dB.TrimTransitive(&stB); err != nil {
		t.Fatal(err)
	}
	if err := dB.TrimContainment(&stB); err != nil {
		t.Fatal(err)
	}
	poolB.Close() // "kill": the run's connections close with the pool

	// Resume on a fresh pool from the newest checkpoint.
	cs, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Transitive", "Containment"}; !reflect.DeepEqual(cs.Done, want) || cs.Fingerprint != 0x5eed {
		t.Fatalf("checkpoint done = %v, fingerprint %#x; want %v, 0x5eed", cs.Done, cs.Fingerprint, want)
	}
	poolC, err := dist.NewLocalPool(2, NewService)
	if err != nil {
		t.Fatal(err)
	}
	defer poolC.Close()
	dC, err := ResumeDriver(poolC, cs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dC.Close()
	gotContigs, gotStats := fullRun(dC)

	if wantStats.TransitiveEdges != gotStats.TransitiveEdges || wantStats.ContainedNodes != gotStats.ContainedNodes ||
		wantStats.FalseEdges != gotStats.FalseEdges || wantStats.DeadEndNodes != gotStats.DeadEndNodes {
		t.Fatalf("resumed stats %+v, want %+v", gotStats, wantStats)
	}
	if len(gotContigs) != len(wantContigs) {
		t.Fatalf("%d contigs after resume, want %d", len(gotContigs), len(wantContigs))
	}
	for i := range wantContigs {
		if !bytes.Equal(gotContigs[i], wantContigs[i]) {
			t.Fatalf("contig %d differs after resume", i)
		}
	}
}

// TestCheckpointResumeSkipsCorrupt: a corrupted newest checkpoint is
// skipped in favour of the previous valid one; all-corrupt is a loud
// error, not a silent fresh start.
func TestCheckpointResumeSkipsCorrupt(t *testing.T) {
	genome := randGenome(29, 3000)
	reads := tilingReads(genome, 100, 30)
	dir := t.TempDir()
	dg, labels, _ := buildPipeline(t, reads, 2)
	d, err := NewDriver(nil, dg, labels, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !d.localOnly || d.Pool != nil {
		t.Fatalf("nil-pool driver: localOnly=%v, Pool=%v", d.localOnly, d.Pool)
	}
	d.EnableCheckpoint(dir, 0)
	var st TrimStats
	if err := d.TrimTransitive(&st); err != nil {
		t.Fatal(err)
	}
	if err := d.TrimContainment(&st); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest (seq 2): resume must land on seq 1.
	newest := filepath.Join(dir, checkpoint.Name(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xA5
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cs, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Transitive"}; !reflect.DeepEqual(cs.Done, want) {
		t.Fatalf("resumed done = %v, want %v (older valid checkpoint)", cs.Done, want)
	}
	// Corrupt everything: loud failure.
	oldest := filepath.Join(dir, checkpoint.Name(1))
	if err := os.WriteFile(oldest, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLatestCheckpoint(dir); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("all-corrupt dir: err = %v, want ErrCorrupt", err)
	}
	// Empty dir: ErrNone (fresh start), not corruption.
	if _, err := LoadLatestCheckpoint(t.TempDir()); !errors.Is(err, checkpoint.ErrNone) {
		t.Fatalf("empty dir: err = %v, want ErrNone", err)
	}
}

// TestCheckpointRefusesOldVersion: a frame of the previous payload
// version (version 2 had no input fingerprint) fails the load loudly with
// ErrVersion; it is never decoded as the current version.
func TestCheckpointRefusesOldVersion(t *testing.T) {
	dir := t.TempDir()
	if err := checkpoint.Write(dir, 1, CheckpointVersion-1, []byte("old payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLatestCheckpoint(dir); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("version %d frame: err = %v, want ErrVersion", CheckpointVersion-1, err)
	}
}
