// Package report renders the experiment harness's tables and figures as
// text: aligned ASCII tables (the paper's Tables I/II), horizontal bar
// charts (the paper's bar figures 5-7), and line series (Figs. 1-2), plus
// CSV export for downstream plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells, long rows
// are truncated to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart renders grouped horizontal bars, the textual analogue of the
// paper's Figs. 5-7.
type BarChart struct {
	Title string
	Unit  string
	// Width is the maximum bar length in characters (default 50).
	Width  int
	labels []string
	values []float64
}

// NewBarChart creates a chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Width: 50}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// Render writes the chart to w.
func (c *BarChart) Render(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	maxV := 0.0
	maxL := 0
	for i, v := range c.values {
		if v > maxV {
			maxV = v
		}
		if len(c.labels[i]) > maxL {
			maxL = len(c.labels[i])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, v := range c.values {
		n := 0
		if maxV > 0 && v > 0 {
			n = int(math.Round(v / maxV * float64(width)))
			if n == 0 {
				n = 1
			}
		}
		fmt.Fprintf(&b, "%-*s |%s %.4g%s\n", maxL, c.labels[i], strings.Repeat("#", n), v, c.Unit)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series renders an (x, y) line series as aligned columns — the textual
// form of Figs. 1-2.
type Series struct {
	Title  string
	XLabel string
	YLabel []string
	rows   [][]float64
}

// NewSeries creates a series with one x column and the given y columns.
func NewSeries(title, xLabel string, yLabels ...string) *Series {
	return &Series{Title: title, XLabel: xLabel, YLabel: yLabels}
}

// Add appends one sample; the number of ys must match the y labels.
func (s *Series) Add(x float64, ys ...float64) error {
	if len(ys) != len(s.YLabel) {
		return fmt.Errorf("report: %d values for %d series", len(ys), len(s.YLabel))
	}
	s.rows = append(s.rows, append([]float64{x}, ys...))
	return nil
}

// table converts the series into its tabular form.
func (s *Series) table() *Table {
	t := NewTable(s.Title, append([]string{s.XLabel}, s.YLabel...)...)
	for _, row := range s.rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprintf("%.4g", v)
		}
		t.AddRow(cells...)
	}
	return t
}

// Render writes the series to w.
func (s *Series) Render(w io.Writer) error { return s.table().Render(w) }

// CSV writes the series as comma-separated values.
func (s *Series) CSV(w io.Writer) error { return s.table().CSV(w) }
