package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Headers: []string{"name", "count"},
	}
	tbl.addRow("alpha", 1)
	tbl.addRow("beta-long-name", 22)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "count") {
		t.Errorf("header line %q", lines[1])
	}
	// Column alignment: "count" column starts at the same offset in all
	// data rows.
	idx := strings.Index(lines[1], "count")
	if got := strings.Index(lines[3], "1"); got < 0 {
		t.Fatalf("row line %q", lines[3])
	}
	if !strings.HasPrefix(lines[3], "alpha") {
		t.Errorf("row %q", lines[3])
	}
	_ = idx
}

func TestAddRowFormatsFloats(t *testing.T) {
	tbl := Table{Headers: []string{"v"}}
	tbl.addRow(3.14159)
	tbl.addRow(2.0)
	tbl.addRow(1e-9)
	if tbl.Rows[0][0] != "3.142" {
		t.Errorf("float fmt %q", tbl.Rows[0][0])
	}
	if tbl.Rows[1][0] != "2" {
		t.Errorf("integral float fmt %q", tbl.Rows[1][0])
	}
	if !strings.Contains(tbl.Rows[2][0], "e-09") {
		t.Errorf("tiny float fmt %q", tbl.Rows[2][0])
	}
}

func TestFigureRendering(t *testing.T) {
	f := Figure{Title: "fig", XLabel: "x", YLabel: "y"}
	f.add(Series{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}})
	f.add(Series{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}})
	out := f.String()
	if !strings.Contains(out, "fig") || !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("missing pieces:\n%s", out)
	}
	// Shared x-grid: two data rows.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "10") || !strings.Contains(lines[3], "30") {
		t.Errorf("row 1 missing y values: %q", lines[3])
	}
}

func TestFigureDisjointX(t *testing.T) {
	f := Figure{XLabel: "x"}
	f.add(Series{Name: "a", X: []float64{1}, Y: []float64{5}})
	f.add(Series{Name: "b", X: []float64{2}, Y: []float64{6}})
	out := f.String()
	// Union grid has both xs; missing cells are blank.
	if !strings.Contains(out, "5") || !strings.Contains(out, "6") {
		t.Errorf("missing values:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5:       "5",
		-3:      "-3",
		0.25:    "0.25",
		1e-7:    "1.000e-07",
		123456:  "123456",
		3.14159: "3.142",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
