package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RelTimeRow is one bar group of Figure 2 or Figure 3: per-benchmark
// execution time of each configuration relative to the ideal baseline
// (associative store queue with perfect scheduling).
type RelTimeRow struct {
	// Benchmark names the benchmark; Suite its suite.
	Benchmark string
	Suite     workload.Suite
	// BaselineIPC is the ideal baseline's IPC (printed above each benchmark
	// in the paper's figures).
	BaselineIPC float64
	// Relative maps a configuration name to its execution time relative to
	// the ideal baseline (lower is better; 1.0 = equal).
	Relative map[string]float64
	// IsMean marks a per-suite geometric-mean row.
	IsMean bool
}

// figureKinds are the four bars of Figures 2 and 3, in presentation order.
var figureKinds = []core.ConfigKind{core.Baseline, core.NoSQNoDelay, core.NoSQDelay, core.PerfectSMB}

// Figure titles, shared by the classic wrappers and the registry.
const (
	fig2Title = "Figure 2: relative execution time (128-entry window)"
	fig3Title = "Figure 3: relative execution time (256-entry window)"
)

// Figure2 reproduces Figure 2: execution time of the associative-store-queue
// baseline, NoSQ without delay, NoSQ with delay, and perfect SMB, relative to
// the ideal baseline, on the 128-entry-window machine.
func Figure2(opts Options) (*stats.Table, []RelTimeRow, error) {
	tbl, rows, _, err := figure2(context.Background(), opts)
	return tbl, rows, err
}

func figure2(ctx context.Context, opts Options) (*stats.Table, []RelTimeRow, Summary, error) {
	return relativeTimeFigure(ctx, fig2Title, opts, false, 128)
}

// Figure3 reproduces Figure 3: the same comparison on a 256-entry-window
// machine (window resources doubled, branch predictor quadrupled, bypassing
// predictor unchanged), on the paper's selected benchmarks.
func Figure3(opts Options) (*stats.Table, []RelTimeRow, error) {
	tbl, rows, _, err := figure3(context.Background(), opts)
	return tbl, rows, err
}

func figure3(ctx context.Context, opts Options) (*stats.Table, []RelTimeRow, Summary, error) {
	return relativeTimeFigure(ctx, fig3Title, opts, true, 256)
}

func relativeTimeFigure(ctx context.Context, title string, opts Options, selected bool, window int) (*stats.Table, []RelTimeRow, Summary, error) {
	benchmarks := defaultBenchmarks(opts, selected)
	kinds := append([]core.ConfigKind{core.IdealBaseline}, figureKinds...)
	cfgs := kindConfigs(kinds, window)
	runs, sum, err := runSweep(ctx, benchmarkSource(fmt.Sprintf("figure-w%d", window), benchmarks), cfgs, opts)
	if err != nil {
		return nil, nil, sum, err
	}
	benchmarks = completeOnly(benchmarks, runs, len(cfgs), &sum)

	var rows []RelTimeRow
	bySuite := orderedBySuite(benchmarks)
	for _, suite := range suiteOrder {
		var suiteRows []RelTimeRow
		for _, b := range bySuite[suite] {
			ideal := runs[b][core.IdealBaseline.String()]
			row := RelTimeRow{
				Benchmark:   b,
				Suite:       suite,
				BaselineIPC: ideal.IPC(),
				Relative:    make(map[string]float64, len(figureKinds)),
			}
			for _, k := range figureKinds {
				row.Relative[k.String()] = stats.RelativeExecutionTime(runs[b][k.String()], ideal)
			}
			suiteRows = append(suiteRows, row)
		}
		if len(suiteRows) == 0 {
			continue
		}
		rows = append(rows, suiteRows...)
		rows = append(rows, relGeoMeanRow(suite, suiteRows))
	}

	tbl := stats.NewTable(title,
		"benchmark", "ideal IPC",
		core.Baseline.String(), core.NoSQNoDelay.String(), core.NoSQDelay.String(), core.PerfectSMB.String())
	for _, r := range rows {
		name := r.Benchmark
		if r.IsMean {
			name = r.Suite.String() + ".gmean"
		}
		tbl.AddRow(name, r.BaselineIPC,
			r.Relative[core.Baseline.String()],
			r.Relative[core.NoSQNoDelay.String()],
			r.Relative[core.NoSQDelay.String()],
			r.Relative[core.PerfectSMB.String()])
	}
	return tbl, rows, sum, nil
}

func relGeoMeanRow(suite workload.Suite, rows []RelTimeRow) RelTimeRow {
	mean := RelTimeRow{
		Benchmark: suite.String() + ".gmean",
		Suite:     suite,
		Relative:  make(map[string]float64),
		IsMean:    true,
	}
	var ipcs []float64
	for _, k := range figureKinds {
		var vals []float64
		for _, r := range rows {
			vals = append(vals, r.Relative[k.String()])
		}
		mean.Relative[k.String()] = stats.GeoMean(vals)
	}
	for _, r := range rows {
		ipcs = append(ipcs, r.BaselineIPC)
	}
	mean.BaselineIPC = stats.GeoMean(ipcs)
	return mean
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

// Figure4 reproduces Figure 4: data-cache reads of NoSQ (with delay) relative
// to the associative-store-queue baseline, on the paper's selected
// benchmarks plus suite means.
func Figure4(opts Options) (*stats.Table, []Figure4Row, error) {
	tbl, rows, _, err := figure4(context.Background(), opts)
	return tbl, rows, err
}

func figure4(ctx context.Context, opts Options) (*stats.Table, []Figure4Row, Summary, error) {
	benchmarks := defaultBenchmarks(opts, true)
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	runs, sum, err := runSweep(ctx, benchmarkSource("fig4", benchmarks), cfgs, opts)
	if err != nil {
		return nil, nil, sum, err
	}
	benchmarks = completeOnly(benchmarks, runs, len(cfgs), &sum)

	var rows []Figure4Row
	bySuite := orderedBySuite(benchmarks)
	for _, suite := range suiteOrder {
		var suiteRows []Figure4Row
		for _, b := range bySuite[suite] {
			base := runs[b][core.Baseline.String()]
			nosq := runs[b][core.NoSQDelay.String()]
			denom := float64(base.TotalDCacheReads())
			if denom == 0 {
				denom = 1
			}
			suiteRows = append(suiteRows, Figure4Row{
				Benchmark:    b,
				Suite:        suite,
				CoreReads:    float64(nosq.DCacheCoreReads) / denom,
				BackendReads: float64(nosq.DCacheBackendReads) / denom,
			})
		}
		if len(suiteRows) == 0 {
			continue
		}
		rows = append(rows, suiteRows...)
		var cores, backs []float64
		for _, r := range suiteRows {
			cores = append(cores, r.CoreReads)
			backs = append(backs, r.BackendReads)
		}
		rows = append(rows, Figure4Row{
			Benchmark:    suite.String() + ".amean",
			Suite:        suite,
			CoreReads:    stats.Mean(cores),
			BackendReads: stats.Mean(backs),
			IsMean:       true,
		})
	}

	tbl := stats.NewTable("Figure 4: data-cache reads relative to baseline (NoSQ with delay)",
		"benchmark", "ooo-core reads", "back-end reads", "total")
	for _, r := range rows {
		tbl.AddRow(r.Benchmark, r.CoreReads, r.BackendReads, r.Total())
	}
	return tbl, rows, sum, nil
}

// SensitivityRow is one benchmark's series in Figure 5: execution time
// relative to the ideal baseline for each predictor variant.
type SensitivityRow struct {
	Benchmark string
	Suite     workload.Suite
	// Relative maps variant label (e.g. "512", "2k", "inf", "8 bits") to
	// relative execution time.
	Relative map[string]float64
	IsMean   bool
}

// Figure5Capacity reproduces the top half of Figure 5: sensitivity of NoSQ
// (with delay) to the bypassing predictor's capacity — 512, 1K, 2K (default),
// 4K entries and an unbounded predictor.
func Figure5Capacity(opts Options) (*stats.Table, []SensitivityRow, error) {
	tbl, rows, _, err := figure5Capacity(context.Background(), opts)
	return tbl, rows, err
}

func figure5Capacity(ctx context.Context, opts Options) (*stats.Table, []SensitivityRow, Summary, error) {
	variants := []struct {
		label   string
		entries int
	}{
		{"512", 512}, {"1k", 1024}, {"2k", 2048}, {"4k", 4096}, {"inf", 0},
	}
	cfgs := kindConfigs([]core.ConfigKind{core.IdealBaseline}, 0)
	var labels []string
	for _, v := range variants {
		cfg := core.ConfigFor(core.NoSQDelay, 0)
		cfg.BypassPred.Entries = v.entries
		cfg.Name = "nosq-cap-" + v.label
		label := "cap-" + v.label
		cfgs[label] = cfg
		labels = append(labels, label)
	}
	return sensitivity(ctx, "fig5cap", "Figure 5 (top): bypassing predictor capacity sensitivity", opts, cfgs, labels)
}

// Figure5History reproduces the bottom half of Figure 5: sensitivity to the
// number of path-history bits (4, 6, 8, 10, 12) for the default 2K-entry
// predictor and for an unbounded predictor.
func Figure5History(opts Options) (*stats.Table, []SensitivityRow, error) {
	tbl, rows, _, err := figure5History(context.Background(), opts)
	return tbl, rows, err
}

func figure5History(ctx context.Context, opts Options) (*stats.Table, []SensitivityRow, Summary, error) {
	bits := []int{4, 6, 8, 10, 12}
	cfgs := kindConfigs([]core.ConfigKind{core.IdealBaseline}, 0)
	var labels []string
	for _, b := range bits {
		cfg := core.ConfigFor(core.NoSQDelay, 0)
		cfg.BypassPred.HistoryBits = b
		cfg.Name = fmt.Sprintf("nosq-hist-%d", b)
		label := fmt.Sprintf("hist-%d", b)
		cfgs[label] = cfg
		labels = append(labels, label)

		unb := core.ConfigFor(core.NoSQDelay, 0)
		unb.BypassPred.HistoryBits = b
		unb.BypassPred.Entries = 0
		unb.Name = fmt.Sprintf("nosq-hist-%d-inf", b)
		labelInf := fmt.Sprintf("hist-%d-inf", b)
		cfgs[labelInf] = unb
		labels = append(labels, labelInf)
	}
	return sensitivity(ctx, "fig5hist", "Figure 5 (bottom): path-history length sensitivity", opts, cfgs, labels)
}

// sensitivity runs the ideal baseline plus a set of NoSQ variants on the
// selected benchmarks and reports execution time relative to the ideal
// baseline, with per-suite geometric means; scope namespaces its results.
func sensitivity(ctx context.Context, scope, title string, opts Options, cfgs map[string]pipeline.Config, labels []string) (*stats.Table, []SensitivityRow, Summary, error) {
	benchmarks := defaultBenchmarks(opts, true)
	runs, sum, err := runSweep(ctx, benchmarkSource(scope, benchmarks), cfgs, opts)
	if err != nil {
		return nil, nil, sum, err
	}
	benchmarks = completeOnly(benchmarks, runs, len(cfgs), &sum)

	var rows []SensitivityRow
	bySuite := orderedBySuite(benchmarks)
	for _, suite := range suiteOrder {
		var suiteRows []SensitivityRow
		for _, b := range bySuite[suite] {
			ideal := runs[b][core.IdealBaseline.String()]
			row := SensitivityRow{Benchmark: b, Suite: suite, Relative: make(map[string]float64, len(labels))}
			for _, l := range labels {
				row.Relative[l] = stats.RelativeExecutionTime(runs[b][l], ideal)
			}
			suiteRows = append(suiteRows, row)
		}
		if len(suiteRows) == 0 {
			continue
		}
		rows = append(rows, suiteRows...)
		mean := SensitivityRow{Benchmark: suite.String() + ".gmean", Suite: suite, Relative: make(map[string]float64), IsMean: true}
		for _, l := range labels {
			var vals []float64
			for _, r := range suiteRows {
				vals = append(vals, r.Relative[l])
			}
			mean.Relative[l] = stats.GeoMean(vals)
		}
		rows = append(rows, mean)
	}

	cols := append([]string{"benchmark"}, labels...)
	tbl := stats.NewTable(title, cols...)
	for _, r := range rows {
		cells := make([]interface{}, 0, len(labels)+1)
		cells = append(cells, r.Benchmark)
		for _, l := range labels {
			cells = append(cells, r.Relative[l])
		}
		tbl.AddRow(cells...)
	}
	return tbl, rows, sum, nil
}
