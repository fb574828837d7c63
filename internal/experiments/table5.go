package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

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

// Table5 reproduces Table 5: store-load communication behaviour and
// bypassing-predictor accuracy, per benchmark plus per-suite averages.
func Table5(opts Options) (*stats.Table, []Table5Row, error) {
	tbl, rows, _, err := table5(context.Background(), opts)
	return tbl, rows, err
}

func table5(ctx context.Context, opts Options) (*stats.Table, []Table5Row, Summary, error) {
	benchmarks := defaultBenchmarks(opts, false)
	cfgs := kindConfigs([]core.ConfigKind{core.NoSQNoDelay, core.NoSQDelay}, 0)
	runs, sum, err := runSweep(ctx, benchmarkSource("table5", benchmarks), cfgs, opts)
	if err != nil {
		return nil, nil, sum, err
	}
	benchmarks = completeOnly(benchmarks, runs, len(cfgs), &sum)

	var rows []Table5Row
	bySuite := orderedBySuite(benchmarks)
	for _, suite := range suiteOrder {
		var suiteRows []Table5Row
		for _, b := range bySuite[suite] {
			noDelay := runs[b][core.NoSQNoDelay.String()]
			withDelay := runs[b][core.NoSQDelay.String()]
			suiteRows = append(suiteRows, Table5Row{
				Benchmark:        b,
				Suite:            suite,
				CommPct:          noDelay.PctInWindowComm(),
				PartialPct:       noDelay.PctInWindowPartial(),
				MisPer10kNoDelay: noDelay.MispredictsPer10kLoads(),
				MisPer10kDelay:   withDelay.MispredictsPer10kLoads(),
				PctDelayed:       withDelay.PctLoadsDelayed(),
			})
		}
		if len(suiteRows) == 0 {
			continue
		}
		rows = append(rows, suiteRows...)
		rows = append(rows, suiteMeanRow(suite, suiteRows))
	}

	tbl := stats.NewTable(
		"Table 5: communication behaviour and prediction accuracy",
		"benchmark", "comm %loads", "partial %loads", "mispred/10k (no delay)", "mispred/10k (delay)", "%loads delayed",
	)
	for _, r := range rows {
		name := r.Benchmark
		if r.IsMean {
			name = r.Suite.String() + ".avg"
		}
		tbl.AddRow(name, r.CommPct, r.PartialPct, r.MisPer10kNoDelay, r.MisPer10kDelay, r.PctDelayed)
	}
	return tbl, rows, sum, nil
}

func suiteMeanRow(suite workload.Suite, rows []Table5Row) Table5Row {
	var comm, partial, misNo, misDelay, delayed []float64
	for _, r := range rows {
		comm = append(comm, r.CommPct)
		partial = append(partial, r.PartialPct)
		misNo = append(misNo, r.MisPer10kNoDelay)
		misDelay = append(misDelay, r.MisPer10kDelay)
		delayed = append(delayed, r.PctDelayed)
	}
	return Table5Row{
		Benchmark:        suite.String() + ".avg",
		Suite:            suite,
		CommPct:          stats.Mean(comm),
		PartialPct:       stats.Mean(partial),
		MisPer10kNoDelay: stats.Mean(misNo),
		MisPer10kDelay:   stats.Mean(misDelay),
		PctDelayed:       stats.Mean(delayed),
		IsMean:           true,
	}
}
