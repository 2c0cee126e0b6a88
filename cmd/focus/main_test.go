package main

import (
	"errors"
	"flag"
	"os"
	"strings"
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

// TestReadmeFlagsDefined: every -flag on a focus command line in
// README.md's shell blocks is one the command defines, so the README
// cannot keep advertising a flag that was removed.
func TestReadmeFlagsDefined(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	inShell := false
	for _, line := range strings.Split(strings.ReplaceAll(string(readme), "\\\n", " "), "\n") {
		if fence := strings.TrimSpace(line); strings.HasPrefix(fence, "```") {
			inShell = !inShell && (fence == "```sh" || fence == "```bash")
			continue
		}
		if !inShell || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		isFocus := false
		for _, tok := range strings.Fields(line) {
			switch {
			case tok == "focus" || strings.HasSuffix(tok, "/focus"):
				isFocus = true
				commands++
			case tok == "|" || tok == "&&" || tok == ";" || tok == "&" || tok == "#":
				isFocus = false
			case isFocus && len(tok) > 1 && tok[0] == '-':
				name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				if flag.Lookup(name) == nil {
					t.Errorf("README.md runs focus with undefined flag %s: %s", tok, strings.TrimSpace(line))
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("no focus command line found in README.md's shell blocks")
	}
}
