// Package lint implements detlint, the analyzer suite that enforces the
// determinism contract of docs/ARCHITECTURE.md at the source level. Each
// Analyzer turns one prose bullet of the contract into a machine-checked
// rule: maprange (map iteration must be sorted at the boundary),
// wallclock (no wall-clock or seedless randomness in determinism-critical
// packages), goroutines (fan-out only in the audited concurrency
// packages), and pkgdoc (every package documents its role and its
// determinism/ordering guarantees). A finding is suppressed by a
// `//detlint:ok <analyzer> -- <reason>` directive on the offending line
// or the line above; the reason is mandatory, and a directive that
// suppresses nothing is itself a finding (staledirective), so
// suppressions cannot outlive the code they excused.
//
// The package is deterministic by construction: findings are sorted by
// position before they are returned (reads sorted at the boundary), and
// it depends only on the standard library's go/ast, go/parser, go/types,
// and go/importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the canonical file:line:col: analyzer:
// message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// ReportFunc records one finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Analyzer is one determinism-contract rule. Run inspects a typechecked
// package and reports findings; it must visit files in Package.Files
// order and must not depend on map iteration order (the framework sorts
// findings, but analyzer-internal choices must be deterministic too).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkg *Package, report ReportFunc)
}

// StaleDirectiveName is the analyzer name under which directive-hygiene
// findings (malformed or unused //detlint:ok directives) are reported.
// It is not itself suppressible.
const StaleDirectiveName = "staledirective"

// All returns the analyzer suite in its fixed run order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, Goroutines, PkgDoc}
}

// suppressibleNames are the analyzer names a //detlint:ok directive may
// name.
func suppressibleNames() []string {
	names := make([]string, 0, len(All()))
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// directive is one parsed //detlint:ok comment.
type directive struct {
	analyzer string
	reason   string
	file     string
	line     int
	problem  string // non-empty: malformed, reported instead of honored
	used     bool
}

// parseDirectives extracts every //detlint:ok directive from the
// package's comments, in file/position order.
func parseDirectives(pkg *Package) []*directive {
	var ds []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//detlint:ok")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &directive{file: pos.Filename, line: pos.Line}
				name, reason, hasReason := strings.Cut(strings.TrimSpace(rest), "--")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					d.problem = "directive names no analyzer; use //detlint:ok <analyzer> -- <reason>"
				case !isSuppressible(name):
					d.problem = fmt.Sprintf("directive names unknown or unsuppressible analyzer %q (known: %s)",
						name, strings.Join(suppressibleNames(), ", "))
				case !hasReason || reason == "":
					d.problem = fmt.Sprintf("directive for %q has no reason; the reason after ' -- ' is mandatory", name)
				default:
					d.analyzer = name
					d.reason = reason
				}
				ds = append(ds, d)
			}
		}
	}
	return ds
}

func isSuppressible(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Check runs the full analyzer suite over pkg, applies //detlint:ok
// suppressions, appends directive-hygiene findings, and returns the
// surviving findings sorted by file, line, column, and analyzer.
func Check(pkg *Package) []Finding {
	var findings []Finding
	for _, a := range All() {
		name := a.Name
		a.Run(pkg, func(pos token.Pos, format string, args ...any) {
			p := pkg.Fset.Position(pos)
			findings = append(findings, Finding{
				Analyzer: name,
				File:     p.Filename,
				Line:     p.Line,
				Col:      p.Column,
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}

	directives := parseDirectives(pkg)
	kept := findings[:0]
	for _, f := range findings {
		if suppressed(f, directives) {
			continue
		}
		kept = append(kept, f)
	}
	findings = kept

	for _, d := range directives {
		switch {
		case d.problem != "":
			findings = append(findings, Finding{
				Analyzer: StaleDirectiveName, File: d.file, Line: d.line, Col: 1,
				Message: d.problem,
			})
		case !d.used:
			findings = append(findings, Finding{
				Analyzer: StaleDirectiveName, File: d.file, Line: d.line, Col: 1,
				Message: fmt.Sprintf("directive suppresses no %s finding; delete it (suppressions must not outlive the code they excused)", d.analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// suppressed reports whether a valid directive covers f — same analyzer,
// same file, on the finding's line or the line directly above — and
// marks every covering directive used.
func suppressed(f Finding, directives []*directive) bool {
	ok := false
	for _, d := range directives {
		if d.problem != "" || d.analyzer != f.Analyzer || d.file != f.File {
			continue
		}
		if d.line == f.Line || d.line == f.Line-1 {
			d.used = true
			ok = true
		}
	}
	return ok
}

// typeOf is Info.TypeOf with a nil guard for robustness against partial
// type information.
func typeOf(pkg *Package, e ast.Expr) types.Type {
	if pkg.Info == nil {
		return nil
	}
	return pkg.Info.TypeOf(e)
}
