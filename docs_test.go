package focus

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// currentDocs are the documents whose command lines must cite only flags
// the commands define and whose backticked Go identifiers must be
// declared. EXPERIMENTS.md is a dated log of past runs, so it keeps the
// flags and names it ran with.
var currentDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

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
	// citedIdent matches a backticked Go identifier: pkg.Name,
	// pkg.Type.Member, or Type.Member, optionally called with ().
	citedIdent = regexp.MustCompile("`([A-Za-z_]\\w*)\\.([A-Za-z_]\\w*)(?:\\.([A-Za-z_]\\w*))?(?:\\(\\))?`")
	// fuzzLine matches a fuzz target run by scripts/race.sh.
	fuzzLine = regexp.MustCompile(`(?m)^\s*fuzz \./(\S+?)/? (Fuzz\w+)$`)
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
// sh or bash block, or in a backticked span, is defined by that command,
// and every backticked Go identifier they cite is declared in the
// module's non-test code: pkg.Name, pkg.Type.Member and Type.Member (or
// Type.Member()), where pkg is a package of the module and Type an
// exported type declared in it. Spans with any other head, and nested
// field paths (Config.Dist.CallTimeout), are not checked.
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
	decls := parseDecls(t)
	for _, doc := range currentDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedIdent.FindAllStringSubmatch(string(text), -1) {
			if ok, checked := decls.resolve(m[1], m[2], m[3]); checked && !ok && !bases[m[1]+"."+m[2]] {
				t.Errorf("%s cites %s, which is not declared", doc, m[0])
			}
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

// TestRaceScriptFuzzesEveryTarget: scripts/race.sh's fuzz smoke runs
// every fuzz target of the module, and only those.
func TestRaceScriptFuzzesEveryTarget(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || isModule(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if name := string(m[1]); strings.HasPrefix(name, "Fuzz") {
				declared[filepath.ToSlash(filepath.Dir(path))+" "+name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(filepath.Join("scripts", "race.sh"))
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]bool{}
	for _, m := range fuzzLine.FindAllStringSubmatch(string(script), -1) {
		run[m[1]+" "+m[2]] = true
	}
	for target := range declared {
		if !run[target] {
			t.Errorf("scripts/race.sh does not fuzz %s", target)
		}
	}
	for target := range run {
		if !declared[target] {
			t.Errorf("scripts/race.sh fuzzes %s, which is not a fuzz target", target)
		}
	}
	if len(declared) == 0 {
		t.Error("found no fuzz target")
	}
}

// isModule reports whether dir is the root of a module of its own (bench/).
func isModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// decls indexes the module's non-test Go declarations by package name
// (several directories may share one), skipping package main.
type decls struct {
	// idents[pkg] holds the package-level names; members[pkg.Type] the
	// methods, fields and interface methods of a type, and embeds[pkg.Type]
	// the pkg.Type names its struct embeds.
	idents  map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
	// typePkgs[Type] lists the packages declaring an exported type Type.
	typePkgs map[string][]string
}

// parseDecls parses every non-test Go file of the module outside
// testdata directories and nested modules.
func parseDecls(t *testing.T) *decls {
	t.Helper()
	g := &decls{idents: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, typePkgs: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || isModule(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name != "main" {
			g.addFile(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *decls) addFile(f *ast.File) {
	pkg := f.Name.Name
	if g.idents[pkg] == nil {
		g.idents[pkg] = map[string]bool{}
	}
	member := func(typ, name string) {
		key := pkg + "." + typ
		if g.members[key] == nil {
			g.members[key] = map[string]bool{}
		}
		g.members[key][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				g.idents[pkg][decl.Name.Name] = true
			} else if typ := baseTypeName(decl.Recv.List[0].Type); typ != "" {
				member(typ, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						g.idents[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					typ := spec.Name.Name
					g.idents[pkg][typ] = true
					if ast.IsExported(typ) && !slices.Contains(g.typePkgs[typ], pkg) {
						g.typePkgs[typ] = append(g.typePkgs[typ], pkg)
					}
					var fields []*ast.Field
					switch st := spec.Type.(type) {
					case *ast.StructType:
						fields = st.Fields.List
					case *ast.InterfaceType:
						fields = st.Methods.List
					}
					for _, field := range fields {
						for _, n := range field.Names {
							member(typ, n.Name)
						}
						if len(field.Names) > 0 {
							continue
						}
						// An embedded type: its members are promoted.
						switch e := unstar(field.Type).(type) {
						case *ast.Ident:
							member(typ, e.Name)
							g.embeds[pkg+"."+typ] = append(g.embeds[pkg+"."+typ], pkg+"."+e.Name)
						case *ast.SelectorExpr:
							member(typ, e.Sel.Name)
							if x, ok := e.X.(*ast.Ident); ok {
								g.embeds[pkg+"."+typ] = append(g.embeds[pkg+"."+typ], x.Name+"."+e.Sel.Name)
							}
						}
					}
				}
			}
		}
	}
}

func unstar(e ast.Expr) ast.Expr {
	if s, ok := e.(*ast.StarExpr); ok {
		return s.X
	}
	return e
}

// baseTypeName returns the type name of a method receiver (T, *T, T[K]).
func baseTypeName(e ast.Expr) string {
	switch e := unstar(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return baseTypeName(e.X)
	case *ast.IndexListExpr:
		return baseTypeName(e.X)
	}
	return ""
}

// hasMember reports whether pkg.Type (or a type it embeds) declares name.
func (g *decls) hasMember(typ, name string) bool {
	if g.members[typ][name] {
		return true
	}
	for _, e := range g.embeds[typ] {
		if g.hasMember(e, name) {
			return true
		}
	}
	return false
}

// resolve checks the cited span a.b or a.b.c: checked is false when the
// span is outside the checked forms. After a package name only an exported
// name is checked: pkg.lower is a metric (overlap.records), not Go.
func (g *decls) resolve(a, b, c string) (ok, checked bool) {
	if idents := g.idents[a]; idents != nil {
		if !ast.IsExported(b) {
			return false, false
		}
		if c != "" && g.members[a+"."+b] != nil {
			return g.hasMember(a+"."+b, c), true
		}
		return idents[b], true
	}
	if pkgs := g.typePkgs[a]; pkgs != nil && c == "" {
		for _, pkg := range pkgs {
			if g.hasMember(pkg+"."+a, b) {
				return true, true
			}
		}
		return false, true
	}
	return false, false
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
