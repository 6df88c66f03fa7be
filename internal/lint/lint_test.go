package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"anomalyx/internal/lint"
)

// sharedLoader amortizes source-mode stdlib typechecking across the
// fixture tests; Go tests within a package run sequentially, so plain
// lazy initialization is safe.
var sharedLoader *lint.Loader

func loader() *lint.Loader {
	if sharedLoader == nil {
		sharedLoader = lint.NewLoader()
	}
	return sharedLoader
}

// want is one expected finding: a `// want "substring"` annotation on
// the line the finding must land on. The substring is matched against
// "analyzer: message".
type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`want "([^"]+)"`)

// collectWants extracts the annotations from a loaded fixture package.
func collectWants(pkg *lint.Package) []*want {
	var ws []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					ws = append(ws, &want{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return ws
}

// runFixture loads testdata/src/<dir> under the given fake import path,
// runs the full analyzer suite, and requires the findings to match the
// fixture's want annotations exactly — every annotation hit, no
// unexpected findings.
func runFixture(t *testing.T, dir, importPath string) {
	t.Helper()
	pkg, err := loader().LoadDir(filepath.Join("testdata", "src", dir), "anomalyx", importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	findings := lint.Check(pkg)
	wants := collectWants(pkg)

	for _, f := range findings {
		text := fmt.Sprintf("%s: %s", f.Analyzer, f.Message)
		hit := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && strings.Contains(text, w.substr) {
				w.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.substr)
		}
	}
}

func TestMapRangeFixture(t *testing.T) {
	runFixture(t, "maprange", "anomalyx/internal/maprangefix")
}

func TestWallClockFixture(t *testing.T) {
	runFixture(t, "wallclock", "anomalyx/internal/wallclockfix")
}

func TestWallClockAllowlistFixture(t *testing.T) {
	// Loaded under cmd/, where the wallclock policy is exempt: the
	// fixture has wall-clock reads and zero want annotations.
	runFixture(t, "wallclock_allowed", "anomalyx/cmd/wallclockallowed")
}

func TestGoroutinesFixture(t *testing.T) {
	// internal/shard is only a constructor since partitioning moved into
	// core, and is no longer audited: a spawn there is a finding too.
	for _, path := range []string{"anomalyx/internal/gofix", "anomalyx/internal/shard"} {
		runFixture(t, "goroutines", path)
	}
}

func TestGoroutinesAuditedFixture(t *testing.T) {
	// Loaded under an audited concurrency path: spawns and channel
	// makes are permitted, so the fixture expects zero findings.
	runFixture(t, "goroutines_allowed", "anomalyx/internal/engine")
}

func TestPkgDocMissingFixture(t *testing.T) {
	runFixture(t, "pkgdoc_missing", "anomalyx/internal/pkgdocmissing")
}

func TestPkgDocNoNoteFixture(t *testing.T) {
	runFixture(t, "pkgdoc_nonote", "anomalyx/internal/pkgdocnonote")
}

func TestPkgDocExportedFixture(t *testing.T) {
	// Loaded as internal/wire, one of the two strict-boundary paths
	// where every exported identifier needs a doc comment.
	runFixture(t, "pkgdoc_exported", "anomalyx/internal/wire")
}

func TestStaleDirectiveFixture(t *testing.T) {
	runFixture(t, "staledirective", "anomalyx/internal/stalefix")
}

// TestSuppressionRequiresMatchingAnalyzer pins the cross-analyzer rule:
// a directive only suppresses findings of the analyzer it names.
func TestSuppressionRequiresMatchingAnalyzer(t *testing.T) {
	pkg, err := loader().LoadDir(filepath.Join("testdata", "src", "staledirective"), "anomalyx", "anomalyx/internal/stalefix2")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lint.Check(pkg) {
		if f.Analyzer == lint.StaleDirectiveName && strings.Contains(f.Message, "suppresses no") {
			return // the stale directive surfaced as its own finding
		}
	}
	t.Fatal("expected a staledirective finding from the stale suppression")
}
