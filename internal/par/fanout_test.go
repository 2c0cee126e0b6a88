package par

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFrontHalfFansOutThroughRun: the graph-construction packages start no
// goroutine of their own and hold no sync.WaitGroup; every pool they run
// goes through Run, so width 1 and width w take the same code.
func TestFrontHalfFansOutThroughRun(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"graph", "coarsen", "hybrid", "partition", "overlap"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources found (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement; fan out through par.Run", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" {
						t.Errorf("%s: sync.WaitGroup; fan out through par.Run", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}
