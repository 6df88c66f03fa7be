package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// WallClock enforces the reproducibility side of the determinism
// contract: determinism-critical packages may not read the wall clock
// (time.Now, time.Since) or draw from math/rand's seedless global source
// — identical inputs must yield byte-identical reports on every run.
// Only the operational edges are exempt: cmd/ (progress timing) and
// internal/stats/rand.go (the one audited seeded-randomness shim). The
// experiments harness and the trace generator are checked like the
// pipeline: their output is seeded, and the miner comparison's timing
// reads carry reasoned directives.
// Explicitly seeded sources (rand.New, rand.NewPCG, …) and *rand.Rand
// methods are fine everywhere — seeding is what makes them reproducible.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "no wall clock or seedless randomness in determinism-critical packages",
	Run:  runWallClock,
}

func runWallClock(pkg *Package, report ReportFunc) {
	mp := pkg.ModulePath
	if strings.HasPrefix(pkg.Path, mp+"/cmd/") {
		return
	}
	statsRand := pkg.Path == mp+"/internal/stats"
	for _, f := range pkg.Files {
		if statsRand && filepath.Base(pkg.Fset.Position(f.Package).Filename) == "rand.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Signature().Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Int) carry their own seed
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
					report(sel.Pos(), "time.%s reads the wall clock in a determinism-critical package; thread explicit timestamps instead (contract: identical inputs, byte-identical reports)", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !strings.HasPrefix(fn.Name(), "New") {
					report(sel.Pos(), "%s.%s draws from the seedless global source; use a seeded *rand.Rand (internal/stats.NewRand) so runs are reproducible", fn.Pkg().Path(), fn.Name())
				}
			}
			return true
		})
	}
}
