package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSpeedup(t *testing.T) {
	times := []time.Duration{100 * time.Millisecond, 50 * time.Millisecond, 25 * time.Millisecond}
	s := Speedup(times)
	if s[0] != 1 || s[1] != 2 || s[2] != 4 {
		t.Errorf("speedup = %v", s)
	}
	if out := Speedup(nil); len(out) != 0 {
		t.Errorf("empty speedup = %v", out)
	}
	if out := Speedup([]time.Duration{0, 10}); out[0] != 0 || out[1] != 0 {
		t.Errorf("zero-base speedup = %v", out)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("x", 1)
	tbl.AddRow("longer", 2.5)
	tbl.AddRow("d", 3*time.Millisecond)
	out := tbl.String()
	if !strings.Contains(out, "T\n") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "longer") || !strings.Contains(out, "2.500") {
		t.Errorf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "3ms") {
		t.Errorf("missing duration cell:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title + header + sep + 3 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestHeatmap(t *testing.T) {
	var b strings.Builder
	Heatmap(&b, "H", []string{"g1", "g2"}, [][]float64{{0, 1}, {0.5, 0.25}})
	out := b.String()
	if !strings.Contains(out, "g1") || !strings.Contains(out, "g2") {
		t.Errorf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "@") {
		t.Errorf("missing full-intensity glyph:\n%s", out)
	}
	// Out-of-range values are clamped, not panicking.
	Heatmap(&b, "", []string{"x"}, [][]float64{{-1, 2}})
}

func TestSeries(t *testing.T) {
	var b strings.Builder
	Series(&b, "S", "procs", "speedup", []string{"1", "2"}, []float64{1, 2}, 0)
	out := b.String()
	if !strings.Contains(out, "S\n") || !strings.Contains(out, "speedup") {
		t.Errorf("series output:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("unexpected line count:\n%s", out)
	}
}
