package experiments

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The grid experiments (sweep, scenario, corpus, trace) share one path: a
// source of workloads, run over a configuration × window grid, laid out as
// SweepRows, rendered as one table whose identity columns name the
// workload.

// SweepRow is one (workload, configuration, window) cell of a grid
// experiment. Its JSON field names are the table's measurement headers, which
// is what lets DecodeSweepRows read a rendered report back.
type SweepRow struct {
	Benchmark string         `json:"-"`
	Suite     workload.Suite `json:"-"`
	Config    string         `json:"config"`
	Window    int            `json:"window"`
	Cycles    uint64         `json:"cycles"`
	Committed uint64         `json:"committed"`
	IPC       float64        `json:"IPC"`
	// CommPct is the percentage of committed loads with in-window
	// store-load communication.
	CommPct float64 `json:"comm%"`
	// Bypassed / Delayed count speculatively bypassed and delay-held loads.
	Bypassed uint64 `json:"bypassed"`
	Delayed  uint64 `json:"delayed"`
	// MisPer10k is bypassing mis-predictions per 10,000 committed loads.
	MisPer10k float64 `json:"mispred/10k"`
	Flushes   uint64  `json:"flushes"`
	// DCacheReads is total (core + back-end) data-cache reads.
	DCacheReads  uint64 `json:"D$ reads"`
	Reexecutions uint64 `json:"reexec"`
}

// measurementFields are the indices of SweepRow's measurement fields — every
// field with a JSON name — and measurementHeaders their names, in field
// order: the columns every grid table ends with.
var measurementFields, measurementHeaders = func() (idx []int, names []string) {
	t := reflect.TypeOf(SweepRow{})
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("json"); name != "-" {
			idx, names = append(idx, i), append(names, name)
		}
	}
	return idx, names
}()

// measurements returns the row's measurement cells, in header order.
func (r SweepRow) measurements() []interface{} {
	v := reflect.ValueOf(r)
	cells := make([]interface{}, len(measurementFields))
	for i, f := range measurementFields {
		cells[i] = v.Field(f).Interface()
	}
	return cells
}

// DecodeSweepRows reads the rows of a grid experiment's JSON report (as
// rendered by Report.Render("json")) back into SweepRows. Benchmark and Suite
// stay zero: the identity columns differ from experiment to experiment. A
// report that lacks any measurement column is an error, so a renamed column
// fails loudly instead of decoding as zero.
func DecodeSweepRows(raw []byte) ([]SweepRow, error) {
	var doc struct {
		Report struct {
			Columns []string   `json:"columns"`
			Rows    []SweepRow `json:"rows"`
		} `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("experiments: decoding report: %w", err)
	}
	for _, h := range measurementHeaders {
		if !slices.Contains(doc.Report.Columns, h) {
			return nil, fmt.Errorf("experiments: report has no %q column", h)
		}
	}
	return doc.Report.Rows, nil
}

// grid is a grid experiment's machine axis: configuration kinds × window
// sizes, each at its first occurrence.
type grid struct {
	kinds   []core.ConfigKind
	windows []int
}

// resolveGrid reads the grid from opts.Configs (nil = all five kinds) and
// opts.Windows (nil = the 128-entry window).
func resolveGrid(opts Options) (grid, error) {
	g := grid{kinds: core.Kinds(), windows: []int{128}}
	if len(opts.Configs) > 0 {
		g.kinds = nil
		for _, n := range opts.Configs {
			k, err := core.KindByName(strings.TrimSpace(n))
			if err != nil {
				return grid{}, err
			}
			g.kinds = append(g.kinds, k)
		}
	}
	if len(opts.Windows) > 0 {
		g.windows = opts.Windows
	}
	g.kinds, g.windows = dedup(g.kinds), dedup(g.windows)
	for _, w := range g.windows {
		if w <= 0 {
			return grid{}, fmt.Errorf("experiments: invalid window size %d", w)
		}
	}
	return g, nil
}

// sweepKey names one grid cell; sorting these keys preserves the
// configuration-major, window-minor grid order within a workload.
func sweepKey(kind core.ConfigKind, window int) string {
	return fmt.Sprintf("%s@w%04d", kind, window)
}

// configs returns the pipeline configuration of every cell, by sweepKey.
func (g grid) configs() map[string]pipeline.Config {
	cfgs := make(map[string]pipeline.Config, len(g.kinds)*len(g.windows))
	for _, k := range g.kinds {
		for _, w := range g.windows {
			cfgs[sweepKey(k, w)] = core.ConfigFor(k, w)
		}
	}
	return cfgs
}

// commaList joins a grid axis with commas, for report metadata.
func commaList[T any](xs []T) string {
	names := make([]string, len(xs))
	for i, x := range xs {
		names[i] = fmt.Sprint(x)
	}
	return strings.Join(names, ",")
}

// rows lays runs out as SweepRows: workloads grouped by suite in the paper's
// order (Suite values follow it, so a source of one suite keeps its own
// order), then kinds, then windows, in grid order. A cell another shard ran
// has no row.
func (g grid) rows(src source, runs map[string]map[string]stats.Run) []SweepRow {
	names := append([]string(nil), src.names...)
	sort.SliceStable(names, func(i, j int) bool { return src.suite(names[i]) < src.suite(names[j]) })
	var rows []SweepRow
	for _, name := range names {
		for _, k := range g.kinds {
			for _, w := range g.windows {
				run, ok := runs[name][sweepKey(k, w)]
				if !ok {
					continue
				}
				rows = append(rows, SweepRow{
					Benchmark:    name,
					Suite:        src.suite(name),
					Config:       k.String(),
					Window:       w,
					Cycles:       run.Cycles,
					Committed:    run.Committed,
					IPC:          run.IPC(),
					CommPct:      run.PctInWindowComm(),
					Bypassed:     run.BypassedLoads,
					Delayed:      run.DelayedLoads,
					MisPer10k:    run.MispredictsPer10kLoads(),
					Flushes:      run.Flushes,
					DCacheReads:  run.TotalDCacheReads(),
					Reexecutions: run.Reexecutions,
				})
			}
		}
	}
	return rows
}

// layout is how a grid experiment presents its rows: a table title and the
// identity columns that open each row, ahead of the measurement columns.
type layout struct {
	title string
	ident []string
	cells func(SweepRow) []interface{} // one per identity column
}

var (
	sweepLayout = layout{
		title: "Sweep: raw measurements per (benchmark, configuration, window)",
		ident: []string{"benchmark", "suite"},
		cells: func(r SweepRow) []interface{} { return []interface{}{r.Benchmark, r.Suite.String()} },
	}
	traceLayout = layout{
		title: "Trace: raw measurements per (trace, configuration, window)",
		ident: []string{"trace"},
		cells: func(r SweepRow) []interface{} { return []interface{}{r.Benchmark} },
	}
)

// scenarioLayout opens each row with the scenario's name and traffic pattern.
func scenarioLayout(scns []workload.Scenario) layout {
	pattern := make(map[string]string, len(scns))
	for _, s := range scns {
		pattern[s.Name] = cmp.Or(s.Pattern, workload.PatternProfile)
	}
	return layout{
		title: "Scenario: raw measurements per (scenario, configuration, window)",
		ident: []string{"scenario", "pattern"},
		cells: func(r SweepRow) []interface{} { return []interface{}{r.Benchmark, pattern[r.Benchmark]} },
	}
}

// table renders rows under the layout.
func (l layout) table(rows []SweepRow) *stats.Table {
	tbl := stats.NewTable(l.title, append(append([]string(nil), l.ident...), measurementHeaders...)...)
	for _, r := range rows {
		tbl.AddRow(append(l.cells(r), r.measurements()...)...)
	}
	return tbl
}

// runGrid runs src over the configuration × window grid of opts and reports
// one row per cell this process holds, laid out by l. Callers append their
// own metadata; the grid is returned for it.
func runGrid(ctx context.Context, exp string, src source, l layout, opts Options) (*Report, grid, error) {
	g, err := resolveGrid(opts)
	if err != nil {
		return nil, grid{}, err
	}
	runs, sum, err := runSweep(ctx, src, g.configs(), opts)
	if err != nil {
		return nil, grid{}, err
	}
	rows := g.rows(src, runs)
	return report(exp, l.table(rows), rows, sum), g, nil
}

// dedup removes repeated values, keeping first-occurrence order, so a
// repeated name, configuration or window cannot yield duplicate pairs or
// rows.
func dedup[T comparable](xs []T) []T {
	seen := make(map[T]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
