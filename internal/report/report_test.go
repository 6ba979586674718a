package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b") // short row padded
	tb.AddNote("n=%d", 2)
	out := tb.String()

	for _, want := range []string{"== demo ==", "name", "value", "alpha", "note: n=2", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q in:\n%s", want, out)
		}
	}
	// Columns align: every data line is at least as wide as the header.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := NewSeries("bars", "u")
	s.Add("big", 10)
	s.Add("half", 5)
	s.Add("zero", 0)
	out := s.String()
	if !strings.Contains(out, "-- bars --") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	bar := func(line string) int { return strings.Count(line, "#") }
	if bar(lines[1]) != 2*bar(lines[2]) {
		t.Errorf("bars must scale with value: %q vs %q", lines[1], lines[2])
	}
	if bar(lines[3]) != 0 {
		t.Error("zero value must render an empty bar")
	}
}

func TestEmptySeriesAndTable(t *testing.T) {
	if out := NewSeries("e", "").String(); !strings.Contains(out, "-- e --") {
		t.Error("empty series must still render its title")
	}
	if out := NewTable("t", "c").String(); !strings.Contains(out, "c") {
		t.Error("empty table must still render headers")
	}
}

func TestF(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Fatalf("F = %q", F(3.14159, 2))
	}
}
