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
	"slices"
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
// CLI tools. It keeps one typed cell per value and formats the cells only
// when it is rendered, as aligned text (String), Markdown, JSON, or CSV. Its
// JSON storage form (MarshalJSON) keeps each cell's kind and value.
type Table struct {
	Title   string
	Columns []string
	rows    [][]cell
}

// cellKind is the Go type a cell was added as.
type cellKind uint8

// The kinds AddRow accepts, in the order of their storage-form tags.
const (
	kindString cellKind = iota
	kindBool
	kindInt
	kindInt64
	kindUint64
	kindFloat32
	kindFloat64
)

var kindTags = [...]string{"s", "b", "i", "i64", "u64", "f32", "f64"}

// cell is one typed value: a string, or a bool, integer or float held in
// num (a signed integer as its two's complement, a float as its bits).
type cell struct {
	kind cellKind
	str  string
	num  uint64
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of one cell per column. A cell is a string, bool,
// int, int64, uint64, float32 or float64; AddRow panics on any other type,
// and on a row whose length is not the column count, rather than keep what
// it cannot render or store exactly. The text renderings show a float with 3
// decimals and anything else as %v; CSV shows floats at full precision, and
// JSON keeps the typed values.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stats: table %q: a row of %d cells for %d columns", t.Title, len(cells), len(t.Columns)))
	}
	row := make([]cell, len(cells))
	for i, v := range cells {
		var ok bool
		if row[i], ok = cellOf(v); !ok {
			panic(fmt.Sprintf("stats: table %q: column %q cannot hold a %T", t.Title, t.Columns[i], v))
		}
	}
	t.rows = append(t.rows, row)
}

// cellOf returns v as a cell, if v is of a kind a cell holds.
func cellOf(v interface{}) (cell, bool) {
	switch v := v.(type) {
	case string:
		return cell{kind: kindString, str: v}, true
	case bool:
		if v {
			return cell{kind: kindBool, num: 1}, true
		}
		return cell{kind: kindBool}, true
	case int:
		return cell{kind: kindInt, num: uint64(v)}, true
	case int64:
		return cell{kind: kindInt64, num: uint64(v)}, true
	case uint64:
		return cell{kind: kindUint64, num: v}, true
	case float32:
		return cell{kind: kindFloat32, num: uint64(math.Float32bits(v))}, true
	case float64:
		return cell{kind: kindFloat64, num: math.Float64bits(v)}, true
	}
	return cell{}, false
}

// value returns the cell as the Go value it was added as.
func (c cell) value() interface{} {
	switch c.kind {
	case kindString:
		return c.str
	case kindBool:
		return c.num != 0
	case kindInt:
		return int(c.num)
	case kindInt64:
		return int64(c.num)
	case kindUint64:
		return c.num
	case kindFloat32:
		return math.Float32frombits(uint32(c.num))
	default:
		return math.Float64frombits(c.num)
	}
}

// appendText appends the cell as the text and Markdown renderings show it:
// a float as fmt's %.3f does, anything else as appendRaw.
func (c cell) appendText(b []byte) []byte {
	switch c.kind {
	case kindFloat32:
		return strconv.AppendFloat(b, float64(math.Float32frombits(uint32(c.num))), 'f', 3, 32)
	case kindFloat64:
		return strconv.AppendFloat(b, math.Float64frombits(c.num), 'f', 3, 64)
	}
	return c.appendRaw(b)
}

// appendRaw appends the cell at full precision, as CSV and the storage form
// keep it: a float in the shortest form that parses back to its value,
// anything else as fmt's %v does.
func (c cell) appendRaw(b []byte) []byte {
	switch c.kind {
	case kindString:
		return append(b, c.str...)
	case kindBool:
		return strconv.AppendBool(b, c.num != 0)
	case kindInt, kindInt64:
		return strconv.AppendInt(b, int64(c.num), 10)
	case kindUint64:
		return strconv.AppendUint(b, c.num, 10)
	case kindFloat32:
		return strconv.AppendFloat(b, float64(math.Float32frombits(uint32(c.num))), 'g', -1, 32)
	default:
		return strconv.AppendFloat(b, math.Float64frombits(c.num), 'g', -1, 64)
	}
}

// format returns the cell's text (raw false) or full-precision (raw true)
// form.
func (c cell) format(raw bool) string {
	if c.kind == kindString {
		return c.str
	}
	var buf [32]byte
	if raw {
		return string(c.appendRaw(buf[:0]))
	}
	return string(c.appendText(buf[:0]))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the data rows as the text rendering shows them.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = make([]string, len(row))
		for j, c := range row {
			out[i][j] = c.format(false)
		}
	}
	return out
}

// String renders the table with aligned columns: each column is as wide as
// its widest text in bytes, while the padding counts runes, as with fmt's
// %-*s. The output's size is known before it is written.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	extra := 0 // the bytes of multi-byte runes beyond one per rune
	for i, col := range t.Columns {
		widths[i] = len(col)
		extra += len(col) - utf8.RuneCountInString(col)
	}
	var buf [64]byte
	for _, row := range t.rows {
		for i, c := range row {
			text := c.appendText(buf[:0])
			widths[i] = max(widths[i], len(text))
			extra += len(text) - utf8.RuneCount(text)
		}
	}
	line := 1 // the bytes of an all-ASCII row, newline included
	for i, w := range widths {
		line += w
		if i > 0 {
			line += 2
		}
	}
	var b strings.Builder
	b.Grow(len(t.Title) + 1 + (len(t.rows)+2)*line + extra)
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	// cellDone pads cell i, whose text was runes long, and separates it
	// from the next.
	cellDone := func(i, runes int) {
		for ; runes < widths[i]; runes++ {
			b.WriteByte(' ')
		}
		if i < len(widths)-1 {
			b.WriteString("  ")
		}
	}
	for i, col := range t.Columns {
		b.WriteString(col)
		cellDone(i, utf8.RuneCountInString(col))
	}
	b.WriteString("\n")
	for i, w := range widths {
		for ; w > 0; w-- {
			b.WriteByte('-')
		}
		if i < len(widths)-1 {
			b.WriteString("  ")
		}
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		for i, c := range row {
			text := c.appendText(buf[:0])
			b.Write(text)
			cellDone(i, utf8.RuneCount(text))
		}
		b.WriteString("\n")
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
	for _, row := range t.Rows() {
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
	rec := make([]string, len(t.Columns))
	for _, row := range t.rows {
		for i, c := range row {
			rec[i] = c.format(true)
		}
		w.Write(rec)
	}
	w.Flush()
	return b.String()
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
	rows := make([]map[string]interface{}, len(t.rows))
	for i, row := range t.rows {
		rows[i] = make(map[string]interface{}, len(row))
		for j, c := range row {
			rows[i][t.Columns[j]] = c.value()
		}
	}
	return TableDoc{Title: t.Title, Columns: t.Columns, Rows: rows}
}

// JSON renders the table as an indented JSON document (see TableDoc).
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Doc(), "", "  ")
}

// storedTable is the table's storage form; see MarshalJSON.
type storedTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table's storage form, from which UnmarshalJSON
// restores a table that renders the same bytes in every format:
//
//	{"title": ..., "columns": [...], "rows": [["s:gzip", "u64:5636", "f64:0.7581618168914124", ...], ...]}
//
// A cell is its kind's tag (s, b, i, i64, u64, f32 or f64 for string, bool,
// int, int64, uint64, float32 and float64), a colon, and its full-precision
// text, so a uint64 above 2^53, -0, NaN and ±Inf survive. This is not the
// JSON rendering, which is for readers (see JSON).
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := make([][]string, len(t.rows))
	var buf []byte
	for i, row := range t.rows {
		rows[i] = make([]string, len(row))
		for j, c := range row {
			buf = c.appendRaw(append(append(buf[:0], kindTags[c.kind]...), ':'))
			rows[i][j] = string(buf)
		}
	}
	return json.Marshal(storedTable{Title: t.Title, Columns: t.Columns, Rows: rows})
}

// UnmarshalJSON decodes the storage form MarshalJSON encodes. It rejects a
// cell without a known kind, a value its kind cannot hold, and a row whose
// length is not the column count.
func (t *Table) UnmarshalJSON(b []byte) error {
	var st storedTable
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	rows := make([][]cell, len(st.Rows))
	for i, stored := range st.Rows {
		if len(stored) != len(st.Columns) {
			return fmt.Errorf("stats: stored table row %d has %d cells for %d columns", i, len(stored), len(st.Columns))
		}
		rows[i] = make([]cell, len(stored))
		for j, s := range stored {
			c, err := parseCell(s)
			if err != nil {
				return err
			}
			rows[i][j] = c
		}
	}
	*t = Table{Title: st.Title, Columns: st.Columns, rows: rows}
	return nil
}

// parseCell reads one stored cell, "<tag>:<text>".
func parseCell(s string) (cell, error) {
	tag, text, _ := strings.Cut(s, ":")
	var v interface{}
	var err error
	switch cellKind(slices.Index(kindTags[:], tag)) {
	case kindString:
		v = text
	case kindBool:
		v, err = strconv.ParseBool(text)
	case kindInt:
		var n int64
		n, err = strconv.ParseInt(text, 10, strconv.IntSize)
		v = int(n)
	case kindInt64:
		v, err = strconv.ParseInt(text, 10, 64)
	case kindUint64:
		v, err = strconv.ParseUint(text, 10, 64)
	case kindFloat32:
		var f float64
		f, err = strconv.ParseFloat(text, 32)
		v = float32(f)
	case kindFloat64:
		v, err = strconv.ParseFloat(text, 64)
	default:
		return cell{}, fmt.Errorf("stats: stored table cell %q has no known kind", s)
	}
	if err != nil {
		return cell{}, fmt.Errorf("stats: stored table cell %q: %w", s, err)
	}
	c, _ := cellOf(v)
	return c, nil
}
