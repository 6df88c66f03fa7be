// Experiment output rendering: tables and data series as aligned plain
// text, the format cmd/experiments prints and EXPERIMENTS.md records.
//
// Determinism: rendering preserves the caller's row and column order
// and adds nothing of its own (no maps, no clock), so output bytes are
// a pure function of the input.

package experiments

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// addRow appends a row; values are stringified with %v.
func (t *Table) addRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named (x, y) data series — a figure line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series sharing axes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// add appends a series.
func (f *Figure) add(s Series) { f.Series = append(f.Series, s) }

// String renders the figure as aligned columns: x followed by one y
// column per series.
func (f Figure) String() string {
	t := Table{Title: f.Title + "  [x=" + f.XLabel + ", y=" + f.YLabel + "]"}
	t.Headers = append(t.Headers, f.XLabel)
	for _, s := range f.Series {
		t.Headers = append(t.Headers, s.Name)
	}
	// Collect the union of x values in first-seen order (series usually
	// share the grid).
	var xs []float64
	seen := map[float64]int{}
	for _, s := range f.Series {
		for _, x := range s.X {
			if _, ok := seen[x]; !ok {
				seen[x] = len(xs)
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		row := []string{formatFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = formatFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t.String()
}

// formatFloat renders floats compactly: integers without decimals,
// small values in scientific notation.
func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v < 0.001 && v > -0.001:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
