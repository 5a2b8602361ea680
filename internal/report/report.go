// Package report renders experiment results as aligned text tables and CSV
// files, so every cmd/ binary can emit both human-readable output and
// machine-readable data for replotting the paper's figures.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	if len(columns) == 0 {
		panic("report: table needs at least one column")
	}
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) *Table {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
	return t
}

// WriteText renders an aligned monospace table.
func (t *Table) WriteText(w io.Writer) {
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
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// WriteCSV renders the table as CSV (header row first; the title is not
// emitted — CSV consumers name files instead).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the text form.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteText(&b)
	return b.String()
}

// FromSeries builds a table from sweep series sharing an x-axis: one x
// column, then a value and a ±CI column per series. All series must have
// the same length and x-grid.
func FromSeries(title, xName string, series ...stats.Series) *Table {
	if len(series) == 0 {
		panic("report: FromSeries needs at least one series")
	}
	cols := []string{xName}
	for _, s := range series {
		cols = append(cols, s.Name, s.Name+"±")
	}
	t := NewTable(title, cols...)
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			panic("report: series lengths differ")
		}
	}
	for i := 0; i < n; i++ {
		cells := []string{strconv.FormatFloat(series[0].X[i], 'f', 3, 64)}
		for _, s := range series {
			if s.X[i] != series[0].X[i] {
				panic("report: series x-grids differ")
			}
			cells = append(cells,
				strconv.FormatFloat(s.Y[i], 'f', 4, 64),
				strconv.FormatFloat(s.CI[i], 'f', 4, 64))
		}
		t.AddRow(cells...)
	}
	return t
}
