package lint

import (
	"go/ast"
	"go/types"
)

// Goroutines enforces the "fan-ins are sequenced" bullet of the
// determinism contract by construction: every goroutine spawn and every
// channel make must live in one of the audited concurrency packages,
// whose merge points are proven deterministic by parity tests and fuzz
// targets. New fan-out anywhere else is a lint failure until its merge
// is audited (add the package here) or the site carries a justified
// //detlint:ok goroutines directive.
var Goroutines = &Analyzer{
	Name: "goroutines",
	Doc:  "goroutine spawns and channel makes only in audited concurrency packages",
	Run:  runGoroutines,
}

// auditedConcurrency lists the packages (relative to the module root)
// whose fan-out/fan-in discipline is pinned by determinism tests; see
// docs/ARCHITECTURE.md "The determinism contract".
var auditedConcurrency = []string{
	"internal/engine",
	"internal/detector",
	"internal/prefilter",
	"internal/wire",
	"internal/core",
}

func runGoroutines(pkg *Package, report ReportFunc) {
	for _, rel := range auditedConcurrency {
		if pkg.Path == pkg.ModulePath+"/"+rel {
			return
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Go, "go statement outside the audited concurrency packages; fan-out belongs in engine/detector/prefilter/wire/core where the merge order is pinned by tests")
			case *ast.CallExpr:
				id, ok := n.Fun.(*ast.Ident)
				if !ok || id.Name != "make" || len(n.Args) == 0 {
					return true
				}
				if _, ok := pkg.Info.Uses[id].(*types.Builtin); !ok {
					return true
				}
				t := typeOf(pkg, n.Args[0])
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "make(chan) outside the audited concurrency packages; new plumbing needs an audited merge point or a //detlint:ok goroutines -- <reason>")
				}
			}
			return true
		})
	}
}
