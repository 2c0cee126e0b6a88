// Package metrics provides the speedup, table and heat-map rendering
// helpers the benchmark harness uses to print the paper's tables and
// figures as text.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Speedup converts a series of durations into speedups relative to the
// first entry: out[i] = times[0] / times[i].
func Speedup(times []time.Duration) []float64 {
	out := make([]float64, len(times))
	if len(times) == 0 || times[0] <= 0 {
		return out
	}
	for i, d := range times {
		if d > 0 {
			out[i] = float64(times[0]) / float64(d)
		}
	}
	return out
}

// Makespan computes the completion time of scheduling the given task
// durations on `workers` identical processors with LPT (longest
// processing time first) list scheduling. The benchmark harness uses it
// to project measured per-partition task times onto the paper's
// multi-processor cluster when the host has fewer cores (see DESIGN.md
// §2: hardware substitution).
func Makespan(tasks []time.Duration, workers int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	sorted := append([]time.Duration(nil), tasks...)
	for i := 1; i < len(sorted); i++ { // insertion sort, descending
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	load := make([]time.Duration, workers)
	for _, t := range sorted {
		min := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[min] {
				min = w
			}
		}
		load[min] += t
	}
	max := load[0]
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

// Table renders aligned text tables for the harness output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells (fmt.Sprint applied to each value).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// heatChars maps intensity [0,1] to a glyph ramp.
var heatChars = []rune(" .:-=+*#%@")

// Heatmap renders a labeled fraction matrix (rows x cols in [0,1]) as a
// text heat map — the harness's rendering of the paper's Fig. 7.
func Heatmap(w io.Writer, title string, rowLabels []string, frac [][]float64) {
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	maxLabel := 0
	for _, l := range rowLabels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
	}
	cols := 0
	if len(frac) > 0 {
		cols = len(frac[0])
	}
	fmt.Fprintf(w, "  %-*s ", maxLabel, "")
	for p := 0; p < cols; p++ {
		fmt.Fprintf(w, "%2d", p+1)
	}
	fmt.Fprintln(w)
	for r, row := range frac {
		label := ""
		if r < len(rowLabels) {
			label = rowLabels[r]
		}
		fmt.Fprintf(w, "  %-*s ", maxLabel, label)
		for _, f := range row {
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			idx := int(f * float64(len(heatChars)-1))
			fmt.Fprintf(w, " %c", heatChars[idx])
		}
		fmt.Fprintln(w)
	}
}

// Series renders an x/y series as "x: y (bar)" lines — the harness's
// rendering of the paper's line and bar charts (Figs. 4-6).
func Series(w io.Writer, title, xName, yName string, xs []string, ys []float64, yMax float64) {
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	if yMax <= 0 {
		for _, y := range ys {
			if y > yMax {
				yMax = y
			}
		}
	}
	const barWidth = 40
	for i := range xs {
		n := 0
		if yMax > 0 {
			n = int(ys[i] / yMax * barWidth)
		}
		if n < 0 {
			n = 0
		}
		if n > barWidth {
			n = barWidth
		}
		fmt.Fprintf(w, "  %-10s %10.3f %s |%s\n", xs[i], ys[i], yName, strings.Repeat("#", n))
	}
	_ = xName
}
