package focus

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations TestDocsCiteWhatExists
// checks, relative to the repository root.
var citingDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

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
)

// TestDocsCiteWhatExists: every Test*, Benchmark* and Fuzz* name the
// documents cite is a function of the repository (a cited name ending in
// * is a prefix of one; a subtest path names its function), and every
// backticked path they cite exists. A path counts as cited when it starts
// at a top-level entry of the repository (internal/overlap/wire.go), at an
// internal package (overlap/wire_test.go), or is a bare .go, .md, .sh or
// .golden file name, which must name a file somewhere in the repository.
// Paths outside the repository (net/rpc, /metrics) are not checked.
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
