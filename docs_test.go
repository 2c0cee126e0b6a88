package focus

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// citingDocs are the documents whose citations TestDocsCiteWhatExists
// checks, relative to the repository root.
var citingDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

// flagDocs are the documents whose command lines must cite only flags
// the commands define. EXPERIMENTS.md is a dated log of past runs, so it
// keeps the flags it ran with.
var flagDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// commands are the binaries under cmd/ whose cited flags are checked.
var commands = []string{"focus", "focus-bench", "focus-serve", "focus-worker", "readsim"}

var (
	// testFunc matches the declaration of a test, benchmark or fuzz target.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// citedFunc matches a cited one; a trailing * makes it a prefix.
	citedFunc = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// backticked matches a backticked span that may be a path.
	backticked = regexp.MustCompile("`([A-Za-z0-9.][A-Za-z0-9_./-]*)`")
	// qualified matches a Go qualified identifier ending a path, such as
	// internal/graph.Graph.
	qualified = regexp.MustCompile(`\.[A-Z]\w*$`)
	// sourceFile matches the bare file names checked.
	sourceFile = regexp.MustCompile(`\.(go|md|sh|golden)$`)
	// definedFlag matches a flag definition in a command's main.go.
	definedFlag = regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
	// inlineCode matches a backticked span, which may wrap one line.
	inlineCode = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)?)`")
)

// TestDocsCiteWhatExists: every Test*, Benchmark* and Fuzz* name the
// documents cite is a function of the repository (a cited name ending in
// * is a prefix of one; a subtest path names its function), and every
// backticked path they cite exists. A path counts as cited when it starts
// at a top-level entry of the repository (internal/overlap/wire.go), at an
// internal package (overlap/wire_test.go), or is a bare .go, .md, .sh or
// .golden file name, which must name a file somewhere in the repository.
// Paths outside the repository (net/rpc, /metrics) are not checked. In
// flagDocs, every -flag that follows one of the commands on a line of a
// sh or bash block, or in a backticked span, is defined by that command.
func TestDocsCiteWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	bases := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") && name != ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		bases[d.Name()] = true
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	for _, cmd := range commands {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags[cmd] = map[string]bool{}
		for _, m := range definedFlag.FindAllSubmatch(src, -1) {
			flags[cmd][string(m[1])] = true
		}
	}
	for _, doc := range flagDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := 0
		for _, line := range commandLines(string(text)) {
			for _, c := range citedFlags(line) {
				cited++
				if !flags[c.cmd][c.flag] {
					t.Errorf("%s runs %s with -%s, which it does not define: %s", doc, c.cmd, c.flag, line)
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s cites no command flag: its command lines went unread", doc)
		}
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedFunc.FindAllString(string(text), -1) {
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				found := false
				for f := range funcs {
					found = found || strings.HasPrefix(f, prefix)
				}
				if !found {
					t.Errorf("%s cites %s, and no function starts with %s", doc, name, prefix)
				}
			} else if !funcs[name] {
				t.Errorf("%s cites %s, which is not a function", doc, name)
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(string(text), -1) {
			path := strings.TrimSuffix(strings.TrimSuffix(m[1], "/..."), "/")
			path = qualified.ReplaceAllString(path, "")
			first, _, nested := strings.Cut(path, "/")
			switch {
			case nested && exists(first):
			case nested && exists(filepath.Join("internal", first)):
				path = filepath.Join("internal", path)
			case !nested && sourceFile.MatchString(path):
				if !bases[path] {
					t.Errorf("%s cites %s, and no file has that name", doc, path)
				}
				continue
			default:
				continue
			}
			if !exists(path) {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
			}
		}
	}
}

// commandLines returns the lines of text's sh and bash blocks (with
// backslash continuations joined) and its backticked spans outside any
// code block.
func commandLines(text string) []string {
	var lines []string
	var prose strings.Builder
	lang := "" // the open block's language, "" outside a block
	inBlock := false
	for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
		if fence, ok := strings.CutPrefix(strings.TrimSpace(line), "```"); ok {
			inBlock, lang = !inBlock, fence
			prose.WriteString("\n")
			continue
		}
		switch {
		case !inBlock:
			prose.WriteString(line + "\n")
		case lang == "sh" || lang == "bash":
			lines = append(lines, line)
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		lines = append(lines, strings.ReplaceAll(m[1], "\n", " "))
	}
	return lines
}

// flagCite is one -flag cited after a command.
type flagCite struct{ cmd, flag string }

// citedFlags returns the flags line passes to the commands it runs: a
// command's flags run from its name to the next shell separator or
// comment. Packages named to go test, vet or build are not commands.
func citedFlags(line string) []flagCite {
	var cites []flagCite
	cmd := ""
	fields := strings.Fields(line)
	for i, tok := range fields {
		switch {
		case tok == "|" || tok == "||" || tok == "&&" || tok == ";" || tok == "&" || strings.HasPrefix(tok, "#"):
			cmd = ""
		case tok == "go" && i+1 < len(fields) && fields[i+1] != "run":
			cmd = "go"
		case cmd != "go" && slices.Contains(commands, tok[strings.LastIndex(tok, "/")+1:]):
			cmd = tok[strings.LastIndex(tok, "/")+1:]
		case cmd != "" && cmd != "go" && len(tok) > 1 && tok[0] == '-' && tok[1] != '-' && !unicode.IsDigit(rune(tok[1])):
			name, _, _ := strings.Cut(tok[1:], "=")
			cites = append(cites, flagCite{cmd, name})
		}
	}
	return cites
}
