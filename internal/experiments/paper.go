package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The paper's evaluation — Table 5 and Figures 2–5 — shares one path: a fixed
// set of configurations run over a benchmark set, one typed row per benchmark,
// grouped in the paper's suite order, each suite closed by a mean row.

// paperExp is one of the paper's tables or figures, with rows of type R.
type paperExp[R any] struct {
	name, desc, title string
	// scope namespaces the experiment's results in a result store.
	scope string
	// selected makes the paper's selected benchmarks the default set, in
	// place of all 47.
	selected bool
	cfgs     map[string]pipeline.Config
	header   []string
	// row builds one benchmark's row from its runs, keyed as cfgs is.
	row func(benchmark string, suite workload.Suite, runs map[string]stats.Run) R
	// mean builds the row that closes a suite from the suite's rows.
	mean func(suite workload.Suite, rows []R) R
	// cells renders a row, one cell per header column.
	cells func(R) []interface{}
}

func (e paperExp[R]) Name() string        { return e.name }
func (e paperExp[R]) Description() string { return e.desc }

// Run sweeps the benchmark set over the configurations and lays the runs out
// as the paper does. A benchmark that shard selection left without a run
// under every configuration is dropped rather than shown with zero-value
// runs, and counted in the report's meta; the full table comes from
// replaying the merged checkpoints.
func (e paperExp[R]) Run(ctx context.Context, opts Options) (*Report, error) {
	benchmarks := defaultBenchmarks(opts, e.selected)
	runs, sum, err := runSweep(ctx, benchmarkSource(e.scope, benchmarks), e.cfgs, opts)
	if err != nil {
		return nil, err
	}
	bySuite := make(map[workload.Suite][]R)
	for _, b := range benchmarks {
		if len(runs[b]) < len(e.cfgs) {
			sum.Incomplete++
			continue
		}
		s := suiteOf(b)
		bySuite[s] = append(bySuite[s], e.row(b, s, runs[b]))
	}
	var rows []R
	for _, s := range suiteOrder {
		if len(bySuite[s]) > 0 {
			rows = append(append(rows, bySuite[s]...), e.mean(s, bySuite[s]))
		}
	}
	tbl := stats.NewTable(e.title, e.header...)
	for _, r := range rows {
		tbl.AddRow(e.cells(r)...)
	}
	return report(e.name, tbl, rows, sum), nil
}

// meanOf applies mean (stats.Mean or stats.GeoMean) to one field of rows.
func meanOf[R any](mean func([]float64) float64, rows []R, field func(R) float64) float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = field(r)
	}
	return mean(vals)
}

// paperExperiments are the paper's tables and figures, in its presentation
// order.
var paperExperiments = []Experiment{
	table5Exp,
	relTime(paperExp[RelTimeRow]{
		name:  "fig2",
		desc:  "Figure 2: relative execution time, 128-entry window, all benchmarks",
		title: "Figure 2: relative execution time (128-entry window)",
		scope: "figure-w128",
	}, 128, kindVariants(128), true),
	relTime(paperExp[RelTimeRow]{
		name:     "fig3",
		desc:     "Figure 3: relative execution time, 256-entry window, selected benchmarks",
		title:    "Figure 3: relative execution time (256-entry window)",
		scope:    "figure-w256",
		selected: true,
	}, 256, kindVariants(256), true),
	fig4Exp,
	relTime(paperExp[RelTimeRow]{
		name:     "fig5cap",
		desc:     "Figure 5 (top): bypassing-predictor capacity sensitivity",
		title:    "Figure 5 (top): bypassing predictor capacity sensitivity",
		scope:    "fig5cap",
		selected: true,
	}, 0, capacityVariants(), false),
	relTime(paperExp[RelTimeRow]{
		name:     "fig5hist",
		desc:     "Figure 5 (bottom): bypassing-predictor path-history-length sensitivity",
		title:    "Figure 5 (bottom): path-history length sensitivity",
		scope:    "fig5hist",
		selected: true,
	}, 0, historyVariants(), false),
}

// Table5Row is one benchmark's row of Table 5.
type Table5Row struct {
	// Benchmark is the benchmark name; Suite its suite.
	Benchmark string
	Suite     workload.Suite
	// CommPct is the percentage of committed loads with in-window (128
	// instruction) store-load communication.
	CommPct float64
	// PartialPct is the percentage with partial-word communication.
	PartialPct float64
	// MisPer10kNoDelay is bypassing mis-predictions per 10,000 loads for
	// NoSQ without delay.
	MisPer10kNoDelay float64
	// MisPer10kDelay is the same with the delay mechanism enabled.
	MisPer10kDelay float64
	// PctDelayed is the percentage of committed loads delayed.
	PctDelayed float64
	// IsMean marks a suite-average row.
	IsMean bool
}

// table5Exp reproduces Table 5: store-load communication behaviour and
// bypassing-predictor accuracy, per benchmark plus per-suite averages.
var table5Exp = paperExp[Table5Row]{
	name:  "table5",
	desc:  "Table 5: store-load communication behaviour and bypassing-predictor accuracy",
	title: "Table 5: communication behaviour and prediction accuracy",
	scope: "table5",
	cfgs:  kindConfigs([]core.ConfigKind{core.NoSQNoDelay, core.NoSQDelay}, 0),
	header: []string{"benchmark", "comm %loads", "partial %loads",
		"mispred/10k (no delay)", "mispred/10k (delay)", "%loads delayed"},
	row: func(b string, s workload.Suite, runs map[string]stats.Run) Table5Row {
		noDelay, withDelay := runs[core.NoSQNoDelay.String()], runs[core.NoSQDelay.String()]
		return Table5Row{
			Benchmark:        b,
			Suite:            s,
			CommPct:          noDelay.PctInWindowComm(),
			PartialPct:       noDelay.PctInWindowPartial(),
			MisPer10kNoDelay: noDelay.MispredictsPer10kLoads(),
			MisPer10kDelay:   withDelay.MispredictsPer10kLoads(),
			PctDelayed:       withDelay.PctLoadsDelayed(),
		}
	},
	mean: func(s workload.Suite, rows []Table5Row) Table5Row {
		return Table5Row{
			Benchmark:        s.String() + ".avg",
			Suite:            s,
			CommPct:          meanOf(stats.Mean, rows, func(r Table5Row) float64 { return r.CommPct }),
			PartialPct:       meanOf(stats.Mean, rows, func(r Table5Row) float64 { return r.PartialPct }),
			MisPer10kNoDelay: meanOf(stats.Mean, rows, func(r Table5Row) float64 { return r.MisPer10kNoDelay }),
			MisPer10kDelay:   meanOf(stats.Mean, rows, func(r Table5Row) float64 { return r.MisPer10kDelay }),
			PctDelayed:       meanOf(stats.Mean, rows, func(r Table5Row) float64 { return r.PctDelayed }),
			IsMean:           true,
		}
	},
	cells: func(r Table5Row) []interface{} {
		return []interface{}{r.Benchmark, r.CommPct, r.PartialPct, r.MisPer10kNoDelay, r.MisPer10kDelay, r.PctDelayed}
	},
}

// RelTimeRow is one benchmark of Figure 2, 3 or 5: its execution time under
// each configuration relative to the ideal baseline (associative store queue
// with perfect scheduling).
type RelTimeRow struct {
	// Benchmark names the benchmark; Suite its suite.
	Benchmark string
	Suite     workload.Suite
	// BaselineIPC is the ideal baseline's IPC (printed above each benchmark
	// in Figures 2 and 3).
	BaselineIPC float64
	// Relative maps a configuration's label — its kind name in Figures 2
	// and 3, a predictor variant such as "cap-2k" or "hist-8-inf" in
	// Figure 5 — to its execution time relative to the ideal baseline
	// (lower is better; 1.0 = equal).
	Relative map[string]float64
	// IsMean marks a per-suite geometric-mean row.
	IsMean bool
}

// variant is one labelled configuration of a relative-time figure.
type variant struct {
	label string
	cfg   pipeline.Config
}

// relTime completes e as a relative-time figure: each benchmark's execution
// time under every variant relative to the ideal baseline at window, with
// per-suite geometric means. withIPC adds the ideal baseline's IPC column,
// as Figures 2 and 3 print it.
func relTime(e paperExp[RelTimeRow], window int, variants []variant, withIPC bool) paperExp[RelTimeRow] {
	ideal := core.IdealBaseline.String()
	e.cfgs = map[string]pipeline.Config{ideal: core.ConfigFor(core.IdealBaseline, window)}
	e.header = []string{"benchmark"}
	if withIPC {
		e.header = append(e.header, "ideal IPC")
	}
	labels := make([]string, len(variants))
	for i, v := range variants {
		labels[i] = v.label
		e.cfgs[v.label] = v.cfg
	}
	e.header = append(e.header, labels...)
	e.row = func(b string, s workload.Suite, runs map[string]stats.Run) RelTimeRow {
		r := RelTimeRow{Benchmark: b, Suite: s, BaselineIPC: runs[ideal].IPC(),
			Relative: make(map[string]float64, len(labels))}
		for _, l := range labels {
			r.Relative[l] = stats.RelativeExecutionTime(runs[l], runs[ideal])
		}
		return r
	}
	e.mean = func(s workload.Suite, rows []RelTimeRow) RelTimeRow {
		m := RelTimeRow{Benchmark: s.String() + ".gmean", Suite: s,
			BaselineIPC: meanOf(stats.GeoMean, rows, func(r RelTimeRow) float64 { return r.BaselineIPC }),
			Relative:    make(map[string]float64, len(labels)), IsMean: true}
		for _, l := range labels {
			m.Relative[l] = meanOf(stats.GeoMean, rows, func(r RelTimeRow) float64 { return r.Relative[l] })
		}
		return m
	}
	e.cells = func(r RelTimeRow) []interface{} {
		cells := []interface{}{r.Benchmark}
		if withIPC {
			cells = append(cells, r.BaselineIPC)
		}
		for _, l := range labels {
			cells = append(cells, r.Relative[l])
		}
		return cells
	}
	return e
}

// kindVariants are the four bars of Figures 2 and 3 at window, each labelled
// by its kind name.
func kindVariants(window int) []variant {
	var vs []variant
	for _, k := range []core.ConfigKind{core.Baseline, core.NoSQNoDelay, core.NoSQDelay, core.PerfectSMB} {
		vs = append(vs, variant{k.String(), core.ConfigFor(k, window)})
	}
	return vs
}

// capacityVariants are the series of Figure 5's top half: NoSQ with delay
// under a bypassing predictor of 512, 1K, 2K (the default) and 4K entries,
// and an unbounded one.
func capacityVariants() []variant {
	var vs []variant
	for _, c := range []struct {
		label   string
		entries int
	}{{"512", 512}, {"1k", 1024}, {"2k", 2048}, {"4k", 4096}, {"inf", 0}} {
		cfg := core.ConfigFor(core.NoSQDelay, 0)
		cfg.BypassPred.Entries = c.entries
		cfg.Name = "nosq-cap-" + c.label
		vs = append(vs, variant{"cap-" + c.label, cfg})
	}
	return vs
}

// historyVariants are the series of Figure 5's bottom half: NoSQ with delay
// under 4 to 12 path-history bits, for the default 2K-entry predictor and
// for an unbounded one.
func historyVariants() []variant {
	var vs []variant
	for _, bits := range []int{4, 6, 8, 10, 12} {
		cfg := core.ConfigFor(core.NoSQDelay, 0)
		cfg.BypassPred.HistoryBits = bits
		cfg.Name = fmt.Sprintf("nosq-hist-%d", bits)
		vs = append(vs, variant{fmt.Sprintf("hist-%d", bits), cfg})

		cfg.BypassPred.Entries = 0
		cfg.Name += "-inf"
		vs = append(vs, variant{fmt.Sprintf("hist-%d-inf", bits), cfg})
	}
	return vs
}

// Figure4Row is one bar of Figure 4: NoSQ's data-cache reads relative to the
// baseline, split into out-of-order-core reads and back-end re-execution
// reads.
type Figure4Row struct {
	Benchmark string
	Suite     workload.Suite
	// CoreReads and BackendReads are NoSQ's reads normalised to the
	// baseline's total data-cache reads; their sum is the bar height.
	CoreReads    float64
	BackendReads float64
	// IsMean marks a per-suite arithmetic-mean row.
	IsMean bool
}

// Total returns the total relative data-cache reads.
func (r Figure4Row) Total() float64 { return r.CoreReads + r.BackendReads }

// fig4Exp reproduces Figure 4: data-cache reads of NoSQ (with delay) relative
// to the associative-store-queue baseline, on the paper's selected benchmarks
// plus suite means.
var fig4Exp = paperExp[Figure4Row]{
	name:     "fig4",
	desc:     "Figure 4: data-cache read bandwidth of NoSQ relative to the baseline",
	title:    "Figure 4: data-cache reads relative to baseline (NoSQ with delay)",
	scope:    "fig4",
	selected: true,
	cfgs:     kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0),
	header:   []string{"benchmark", "ooo-core reads", "back-end reads", "total"},
	row: func(b string, s workload.Suite, runs map[string]stats.Run) Figure4Row {
		nosq := runs[core.NoSQDelay.String()]
		denom := float64(runs[core.Baseline.String()].TotalDCacheReads())
		if denom == 0 {
			denom = 1
		}
		return Figure4Row{
			Benchmark:    b,
			Suite:        s,
			CoreReads:    float64(nosq.DCacheCoreReads) / denom,
			BackendReads: float64(nosq.DCacheBackendReads) / denom,
		}
	},
	mean: func(s workload.Suite, rows []Figure4Row) Figure4Row {
		return Figure4Row{
			Benchmark:    s.String() + ".amean",
			Suite:        s,
			CoreReads:    meanOf(stats.Mean, rows, func(r Figure4Row) float64 { return r.CoreReads }),
			BackendReads: meanOf(stats.Mean, rows, func(r Figure4Row) float64 { return r.BackendReads }),
			IsMean:       true,
		}
	},
	cells: func(r Figure4Row) []interface{} {
		return []interface{}{r.Benchmark, r.CoreReads, r.BackendReads, r.Total()}
	},
}
