// Package report renders the tables and figure series the benchmark
// harness regenerates: aligned text tables for Tables I–III and labelled
// ASCII bar series for the figures' data.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Point is one labelled value of a Series.
type Point struct {
	Label string
	Value float64
}

// Series is a titled, labelled value series rendered as ASCII bars — the
// textual equivalent of one figure curve.
type Series struct {
	Title  string
	Unit   string
	Points []Point
}

// NewSeries creates a series.
func NewSeries(title, unit string) *Series {
	return &Series{Title: title, Unit: unit}
}

// Add appends a point.
func (s *Series) Add(label string, value float64) {
	s.Points = append(s.Points, Point{Label: label, Value: value})
}

// Render writes the series as scaled horizontal bars.
func (s *Series) Render(w io.Writer) {
	fmt.Fprintf(w, "-- %s --\n", s.Title)
	maxVal, maxLabel := 0.0, 0
	for _, p := range s.Points {
		if p.Value > maxVal {
			maxVal = p.Value
		}
		if len(p.Label) > maxLabel {
			maxLabel = len(p.Label)
		}
	}
	const barWidth = 46
	for _, p := range s.Points {
		n := 0
		if maxVal > 0 {
			n = int(p.Value / maxVal * barWidth)
		}
		fmt.Fprintf(w, "%s |%s %.4g %s\n", pad(p.Label, maxLabel), strings.Repeat("#", n), p.Value, s.Unit)
	}
}

// String renders the series to a string.
func (s *Series) String() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}

// F formats a float compactly with the given precision.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}
