// Package stats provides the simulation result types (Run), the small
// numeric helpers (geometric and arithmetic means, relative execution time)
// used by the experiment harness to reproduce the paper's tables and figures,
// and the Table report type that renders one set of structured rows as
// paper-style text, Markdown, JSON, or CSV.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Run holds the measurements of one simulation run (one benchmark under one
// machine configuration).
type Run struct {
	// Benchmark is the workload name.
	Benchmark string
	// Config is the machine configuration name.
	Config string

	// Cycles is the total simulated cycles.
	Cycles uint64
	// Committed is the number of committed (retired) instructions.
	Committed uint64
	// CommittedLoads / CommittedStores break down committed instructions.
	CommittedLoads  uint64
	CommittedStores uint64

	// InWindowComm counts committed loads whose communicating store was
	// within the last 128 dynamic instructions (Table 5's definition).
	InWindowComm uint64
	// InWindowPartial counts the subset of InWindowComm where either the
	// load or the store is narrower than 8 bytes.
	InWindowPartial uint64

	// BypassedLoads counts loads that performed speculative memory bypassing.
	BypassedLoads uint64
	// DelayedLoads counts loads held by the delay mechanism.
	DelayedLoads uint64
	// BypassMispredictions counts commit-time bypassing mis-predictions
	// (the three cases of Section 3.3).
	BypassMispredictions uint64
	// Flushes counts pipeline flushes due to load value mis-speculation.
	Flushes uint64

	// DCacheCoreReads counts data-cache reads performed by the out-of-order
	// core; DCacheBackendReads counts back-end re-execution reads.
	DCacheCoreReads    uint64
	DCacheBackendReads uint64
	// Reexecutions counts loads that re-executed before commit.
	Reexecutions uint64
	// SQForwards counts loads that forwarded from the store queue (baseline).
	SQForwards uint64

	// BranchMispredicts counts conditional-direction and target mispredictions.
	BranchMispredicts uint64

	// Rename-stall cycle breakdown: cycles in which rename could not proceed
	// because a resource was exhausted.
	StallROB      uint64
	StallIQ       uint64
	StallPhys     uint64
	StallLQ       uint64
	StallSQ       uint64
	StallFrontend uint64 // cycles with nothing available to rename
	// IdleIssueCycles counts cycles in which nothing issued.
	IdleIssueCycles uint64
}

// IPC returns committed instructions per cycle.
func (r Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// MispredictsPer10kLoads returns bypassing mis-predictions per 10,000
// committed loads (the unit of Table 5).
func (r Run) MispredictsPer10kLoads() float64 {
	if r.CommittedLoads == 0 {
		return 0
	}
	return float64(r.BypassMispredictions) * 10000 / float64(r.CommittedLoads)
}

// PctLoadsDelayed returns the percentage of committed loads that were delayed.
func (r Run) PctLoadsDelayed() float64 {
	if r.CommittedLoads == 0 {
		return 0
	}
	return float64(r.DelayedLoads) * 100 / float64(r.CommittedLoads)
}

// PctInWindowComm returns the percentage of committed loads with in-window
// store-load communication.
func (r Run) PctInWindowComm() float64 {
	if r.CommittedLoads == 0 {
		return 0
	}
	return float64(r.InWindowComm) * 100 / float64(r.CommittedLoads)
}

// PctInWindowPartial returns the percentage of committed loads with
// partial-word in-window communication.
func (r Run) PctInWindowPartial() float64 {
	if r.CommittedLoads == 0 {
		return 0
	}
	return float64(r.InWindowPartial) * 100 / float64(r.CommittedLoads)
}

// TotalDCacheReads returns core plus back-end data-cache reads.
func (r Run) TotalDCacheReads() uint64 { return r.DCacheCoreReads + r.DCacheBackendReads }

// RelativeExecutionTime returns r's execution time relative to base
// (1.0 = same, <1.0 = faster than base), the metric of Figures 2, 3 and 5.
func RelativeExecutionTime(r, base Run) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// GeoMean returns the geometric mean of xs (0 if empty or any x <= 0).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table is a fixed-column report table used by the experiment harness and
// CLI tools. It keeps both the typed cell values and their paper-style text
// formatting, so one set of rows can be rendered as aligned text (String),
// Markdown, JSON, or CSV.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	raw     [][]interface{}
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v (floats with 3 decimals)
// for the text rendering, while the raw typed values are retained for the
// machine-readable renderings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	t.raw = append(t.raw, append([]interface{}(nil), cells...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns a copy of the data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// As with fmt's %-*s, the padding counts runes while the
			// widths count bytes.
			b.WriteString(cell)
			for n := utf8.RuneCountInString(cell); n < widths[i]; n++ {
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		for ; w > 0; w-- {
			b.WriteByte('-')
		}
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Report formats: the values accepted by Render.
const (
	FormatText     = "text"
	FormatMarkdown = "markdown"
	FormatJSON     = "json"
	FormatCSV      = "csv"
)

// Formats returns the supported report formats.
func Formats() []string {
	return []string{FormatText, FormatMarkdown, FormatJSON, FormatCSV}
}

// ValidateFormat returns an error naming the supported formats if format is
// not one of them. CLIs call it before running anything expensive.
func ValidateFormat(format string) error {
	for _, f := range Formats() {
		if f == format {
			return nil
		}
	}
	return fmt.Errorf("stats: unknown report format %q (want one of %s)",
		format, strings.Join(Formats(), ", "))
}

// Render renders the table in the named format (see Formats).
func (t *Table) Render(format string) (string, error) {
	switch format {
	case FormatText:
		return t.String(), nil
	case FormatMarkdown:
		return t.Markdown(), nil
	case FormatJSON:
		b, err := t.JSON()
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	case FormatCSV:
		return t.CSV(), nil
	default:
		return "", ValidateFormat(format)
	}
}

// rawString formats a raw cell for the machine-readable renderings: floats
// keep full precision instead of the text table's fixed 3 decimals.
func rawString(c interface{}) string {
	switch v := c.(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(v), 'g', -1, 32)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Markdown renders the table as a GitHub-flavoured Markdown pipe table, with
// the title as a heading.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	escape := func(s string) string {
		return strings.ReplaceAll(s, "|", "\\|")
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(escape(c))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC 4180 CSV: one header row of column names
// followed by the data rows at full numeric precision. The title is not
// part of the CSV output.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Columns)
	for _, row := range t.raw {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = rawString(c)
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
}

// RowMaps returns each data row as a column-name → typed-value map, the shape
// used by the JSON rendering.
func (t *Table) RowMaps() []map[string]interface{} {
	out := make([]map[string]interface{}, len(t.raw))
	for i, row := range t.raw {
		m := make(map[string]interface{}, len(row))
		for j, c := range row {
			if j < len(t.Columns) {
				m[t.Columns[j]] = c
			}
		}
		out[i] = m
	}
	return out
}

// TableDoc is the table's JSON shape:
//
//	{"title": ..., "columns": [...], "rows": [{column: value, ...}, ...]}
//
// Row objects map column names to the typed cell values (numbers stay
// numbers), and encoding/json's sorted map keys make the output
// deterministic. A document that embeds a table (an experiment report)
// embeds this value, so the table is encoded once, with the document.
type TableDoc struct {
	Title   string                   `json:"title"`
	Columns []string                 `json:"columns"`
	Rows    []map[string]interface{} `json:"rows"`
}

// Doc returns the table as its JSON document value.
func (t *Table) Doc() TableDoc {
	return TableDoc{Title: t.Title, Columns: t.Columns, Rows: t.RowMaps()}
}

// JSON renders the table as an indented JSON document (see TableDoc).
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Doc(), "", "  ")
}
