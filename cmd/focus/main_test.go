package main

import (
	"errors"
	"testing"

	"focus"
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
