package main

import (
	"errors"
	"testing"

	"focus"
	"focus/internal/simulate"
)

// TestErrorLine: the command reports an error under its name once — a
// facade error (already named "focus: <stage>: ...") as it is, any other
// error with the name in front.
func TestErrorLine(t *testing.T) {
	cfg := focus.DefaultConfig()
	cfg.Overlap.K = 0
	reads := []focus.Read{{ID: "r", Seq: []byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT")}}
	_, err := focus.BuildStages(reads, cfg)
	if err == nil {
		t.Fatal("k=0 accepted")
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{err, "focus: overlap: k=0 out of range"},
		{errors.New("-resume requires -checkpoint-dir"), "focus: -resume requires -checkpoint-dir"},
	} {
		if got := errorLine(tc.err); got != tc.want {
			t.Errorf("errorLine(%q) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestOverlapEdges: the edge count printed from the records is G0's, and
// the level count printed from the hybrid set is the multilevel set's.
func TestOverlapEdges(t *testing.T) {
	com, err := simulate.BuildCommunity(simulate.SingleGenome("edges", 4000, 5))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{ReadLen: 100, Coverage: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	s, err := focus.BuildStages(rs.Reads, focus.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mset, err := s.MultilevelSet()
	if err != nil {
		t.Fatal(err)
	}
	if mset.Levels[0].NumEdges() == 0 {
		t.Fatal("no overlaps")
	}
	if g0 := mset.Levels[0]; overlapEdges(s) != g0.NumEdges() || len(s.Reads) != g0.NumNodes() {
		t.Errorf("printed %d nodes, %d edges; G0 has %d, %d", len(s.Reads), overlapEdges(s), g0.NumNodes(), g0.NumEdges())
	}
	if len(s.Hyb.Set.Levels) != len(mset.Levels) {
		t.Errorf("printed %d levels; the multilevel set has %d", len(s.Hyb.Set.Levels), len(mset.Levels))
	}
}
