package lint_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"anomalyx/internal/lint"
)

// TestOracleSharesNoCode pins the independence of the grids' reference:
// internal/gridtest/oracle.go, the paper's algorithm written out plainly,
// names no function or method declared under the module's internal/
// tree but its own and flow.Record.Feature. A bug in code the system
// and its reference shared would agree with itself and pass every grid.
// Types and conversions to them are not calls and stay allowed: the
// oracle builds the system's report types.
func TestOracleSharesNoCode(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader().LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	mod := pkgs[0].ModulePath
	var file *ast.File
	var pkg *lint.Package
	for _, p := range pkgs {
		for _, f := range p.Files {
			if p.Fset.Position(f.Pos()).Filename == filepath.Join(root, "internal", "gridtest", "oracle.go") {
				file, pkg = f, p
			}
		}
	}
	if file == nil {
		t.Fatal("internal/gridtest/oracle.go not found")
	}
	own := map[types.Object]bool{}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			own[pkg.Info.Defs[fd.Name]] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || own[fn] || !strings.HasPrefix(fn.Pkg().Path(), mod+"/internal/") {
			return true
		}
		if fn.FullName() != "(*"+mod+"/internal/flow.Record).Feature" {
			t.Errorf("%v: the oracle uses %s", pkg.Fset.Position(id.Pos()), fn.FullName())
		}
		return true
	})
}
