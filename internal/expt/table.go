// Package expt is the experiment harness: parameter sweeps, aligned-text and
// CSV table rendering, and log-log slope estimation for comparing measured
// scaling against the paper's exponents. Every experiment in EXPERIMENTS.md
// (E1–E13, A1–A3) is a function in this package, callable from both
// cmd/lcsbench and the root benchmark suite.
package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/cost"
	"repro/internal/obs"
)

// Table is a simple titled grid of string cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are printed under the table (methodology caveats etc.).
	Notes []string
	// Meta carries machine-readable side data (e.g. raw scheduler Stats)
	// emitted by WriteJSON; text and CSV rendering ignore it.
	Meta map[string]any
}

// SetMeta attaches a machine-readable metadata entry to the table.
func (t *Table) SetMeta(key string, value any) {
	if t.Meta == nil {
		t.Meta = map[string]any{}
	}
	t.Meta[key] = value
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("expt: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
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
	fmt.Fprintf(w, "## %s\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values (no quoting: cells are
// numeric or simple identifiers by construction).
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// RunInfo describes the execution configuration of a JSON-emitted run, so
// BENCH_*.json files can track throughput across seeds and PRs.
type RunInfo struct {
	// Seed is the run's base random seed.
	Seed int64 `json:"seed"`
	// Canceled reports whether the run was aborted by -timeout (or a
	// caller's context); the emitted tables are the experiments that
	// completed before cancellation.
	Canceled bool `json:"canceled"`
	// Error carries the cancellation error when Canceled.
	Error string `json:"error,omitempty"`
	// Cost is the run's (possibly partial) cost: Wall is the run's real
	// duration up to completion or cancellation. The simulated fields stay
	// zero at this level — per-experiment simulated costs live in the table
	// rows, which cancellation truncates to the completed experiments.
	Cost *cost.Cost `json:"cost,omitempty"`
	// Metrics is the run's observability snapshot (counters, gauges,
	// histogram summaries with p50/p99/p999, retained query traces) when
	// the run was instrumented (lcsbench -metrics-out); nil otherwise.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// jsonTable is a Table's JSON form: {title, columns, rows, notes, meta}.
type jsonTable struct {
	Title   string         `json:"title"`
	Columns []string       `json:"columns"`
	Rows    [][]string     `json:"rows"`
	Notes   []string       `json:"notes,omitempty"`
	Meta    map[string]any `json:"meta,omitempty"`
}

func toJSONTables(tables []*Table) []jsonTable {
	out := make([]jsonTable, len(tables))
	for i, t := range tables {
		out[i] = jsonTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes, Meta: t.Meta}
	}
	return out
}

// WriteJSON renders a run as a JSON object {run, tables}, where tables is
// the array of {title, columns, rows, notes, meta} objects — the
// machine-readable form consumed by perf-trajectory tooling. Table Meta
// carries raw side data such as scheduler Stats (E10/A2). For an
// accumulating multi-run file, use AppendJSON instead.
func WriteJSON(w io.Writer, run RunInfo, tables []*Table) error {
	out := struct {
		Run    RunInfo     `json:"run"`
		Tables []jsonTable `json:"tables"`
	}{Run: run, Tables: toJSONTables(tables)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Slope fits a least-squares line to (log x, log y) and returns its slope —
// the empirical polynomial exponent of y in x. Points with non-positive
// coordinates are skipped; fewer than two usable points yield NaN.
func Slope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	denom := fn*sxx - sx*sx
	if denom == 0 {
		return math.NaN()
	}
	return (fn*sxy - sx*sy) / denom
}

// F formats a float compactly for table cells.
func F(x float64) string {
	switch {
	case math.IsNaN(x):
		return "nan"
	case math.IsInf(x, 0):
		return "inf"
	case x == math.Trunc(x) && math.Abs(x) < 1e9:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// I formats an int for table cells.
func I(x int) string { return fmt.Sprintf("%d", x) }
