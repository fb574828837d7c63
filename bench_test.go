package repro

// The repository-level benchmark harness: one benchmark per table and figure
// of the paper's evaluation, plus ablation benchmarks for the design choices
// called out in DESIGN.md and micro-benchmarks of the core structures.
//
// The per-figure benchmarks run a scaled-down version of each experiment
// (selected benchmarks, shorter workloads) so that `go test -bench=.`
// completes in minutes; the full-size experiments are run with
// `go run ./cmd/nosq-experiments`. Key results are reported as custom
// benchmark metrics (relative execution times, misprediction rates) so the
// paper's headline numbers are visible directly in the benchmark output.

import (
	"context"
	"testing"

	"repro/internal/bypass"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/svw"
	"repro/internal/workload"
)

// benchSubset is the benchmark set used by the scaled-down per-figure
// benchmarks: the paper's own "selected benchmarks" (Figures 3-5).
var benchSubset = core.SelectedBenchmarks()

// benchOpts returns experiment options sized for the benchmark harness.
func benchOpts(benchmarks []string) experiments.Options {
	return experiments.Options{Iterations: 120, Benchmarks: benchmarks}
}

// runRows runs the named experiment and returns its typed rows.
func runRows[R any](b *testing.B, name string, opts experiments.Options) []R {
	b.Helper()
	exp, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := exp.Run(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	rows, ok := rep.Rows.([]R)
	if !ok {
		b.Fatalf("%s rows are %T, want %T", name, rep.Rows, rows)
	}
	return rows
}

// BenchmarkTable5 regenerates Table 5 (communication behaviour and bypassing
// predictor accuracy) on the selected benchmark subset and reports the
// average misprediction rates with and without delay.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runRows[experiments.Table5Row](b, "table5", benchOpts(benchSubset))
		var noDelay, withDelay, comm []float64
		for _, r := range rows {
			if r.IsMean {
				continue
			}
			noDelay = append(noDelay, r.MisPer10kNoDelay)
			withDelay = append(withDelay, r.MisPer10kDelay)
			comm = append(comm, r.CommPct)
		}
		b.ReportMetric(stats.Mean(comm), "comm_%loads")
		b.ReportMetric(stats.Mean(noDelay), "mispred/10k_nodelay")
		b.ReportMetric(stats.Mean(withDelay), "mispred/10k_delay")
	}
}

// BenchmarkFigure2 regenerates Figure 2 (relative execution time, 128-entry
// window) and reports the all-benchmark geometric means for each
// configuration relative to the ideal baseline.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRelativeMeans(b, runRows[experiments.RelTimeRow](b, "fig2", benchOpts(benchSubset)))
	}
}

// BenchmarkFigure3 regenerates Figure 3 (relative execution time, 256-entry
// window) on the paper's selected benchmarks.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRelativeMeans(b, runRows[experiments.RelTimeRow](b, "fig3", benchOpts(nil)))
	}
}

// reportRelativeMeans reports, per configuration label, the geometric mean
// of the benchmarks' relative execution times.
func reportRelativeMeans(b *testing.B, rows []experiments.RelTimeRow) {
	b.Helper()
	agg := map[string][]float64{}
	for _, r := range rows {
		if r.IsMean {
			continue
		}
		for k, v := range r.Relative {
			agg[k] = append(agg[k], v)
		}
	}
	for k, vals := range agg {
		b.ReportMetric(stats.GeoMean(vals), "rel_time_"+k)
	}
}

// BenchmarkFigure4 regenerates Figure 4 (data-cache reads of NoSQ relative to
// the baseline) and reports the mean relative read count.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := runRows[experiments.Figure4Row](b, "fig4", benchOpts(nil))
		var totals, backend []float64
		for _, r := range rows {
			if r.IsMean {
				continue
			}
			totals = append(totals, r.Total())
			backend = append(backend, r.BackendReads)
		}
		b.ReportMetric(stats.Mean(totals), "rel_dcache_reads")
		b.ReportMetric(stats.Mean(backend), "rel_backend_reads")
	}
}

// BenchmarkFigure5Capacity regenerates the top half of Figure 5 (predictor
// capacity sensitivity) and reports the geometric-mean relative time per
// capacity.
func BenchmarkFigure5Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRelativeMeans(b, runRows[experiments.RelTimeRow](b, "fig5cap", benchOpts(nil)))
	}
}

// BenchmarkFigure5History regenerates the bottom half of Figure 5 (path
// history length sensitivity, for the default and an unbounded predictor).
func BenchmarkFigure5History(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRelativeMeans(b, runRows[experiments.RelTimeRow](b, "fig5hist", benchOpts(nil)))
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---------

// runAblation runs one benchmark under two configurations and reports the
// cycle ratio (variant / reference).
func runAblation(b *testing.B, benchmark string, reference, variant pipeline.Config) {
	b.Helper()
	prog := workload.MustGenerate(benchmark, workload.Options{Iterations: 150})
	for i := 0; i < b.N; i++ {
		refRun, err := pipeline.MustNew(prog, reference).Run()
		if err != nil {
			b.Fatal(err)
		}
		varRun, err := pipeline.MustNew(prog, variant).Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.RelativeExecutionTime(varRun, refRun), "rel_time_variant")
		b.ReportMetric(varRun.MispredictsPer10kLoads(), "mispred/10k_variant")
		b.ReportMetric(refRun.MispredictsPer10kLoads(), "mispred/10k_reference")
	}
}

// BenchmarkAblationDelay compares NoSQ with and without the confidence-driven
// delay mechanism on the partial-store-heavy benchmark the paper calls out
// (g721.e).
func BenchmarkAblationDelay(b *testing.B) {
	runAblation(b, "g721.e", pipeline.ConfigFor(pipeline.NoSQDelay, 0), pipeline.ConfigFor(pipeline.NoSQNoDelay, 0))
}

// BenchmarkAblationHybridPredictor compares the hybrid (path-sensitive +
// path-insensitive) bypassing predictor against a path-insensitive-only
// predictor on a path-dependent benchmark.
func BenchmarkAblationHybridPredictor(b *testing.B) {
	ref := pipeline.ConfigFor(pipeline.NoSQDelay, 0)
	variant := pipeline.ConfigFor(pipeline.NoSQDelay, 0)
	variant.BypassPred.Hybrid = false
	variant.Name = "nosq-no-path-table"
	runAblation(b, "eon.k", ref, variant)
}

// BenchmarkAblationPredictorCapacity compares the default 2K-entry predictor
// against a quarter-size 512-entry predictor on a SPECint benchmark (the
// suite the paper reports as most capacity-sensitive).
func BenchmarkAblationPredictorCapacity(b *testing.B) {
	ref := pipeline.ConfigFor(pipeline.NoSQDelay, 0)
	variant := pipeline.ConfigFor(pipeline.NoSQDelay, 0)
	variant.BypassPred.Entries = 512
	variant.Name = "nosq-512"
	runAblation(b, "vortex", ref, variant)
}

// BenchmarkAblationTaggedSSBF compares the tagged, set-associative T-SSBF's
// filtering against an untagged direct-mapped SSBF of the same total size on
// a committed-store/load trace (the structure-level ablation of Section 3.4:
// equality tests require tags; untagged filters also re-execute more).
func BenchmarkAblationTaggedSSBF(b *testing.B) {
	prog := workload.MustGenerate("gzip", workload.Options{Iterations: 150})
	trace, err := emu.RecordTrace(prog, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagged := svw.NewTSSBF(128, 4)
		untagged := svw.NewSSBF(128)
		cursor := trace.Cursor(0)
		var loads, taggedReexec, untaggedReexec float64
		for seq := uint64(1); seq <= trace.Len(); seq++ {
			d, _ := cursor.Get(seq)
			switch st := cursor.Static(d); {
			case st.IsStore():
				tagged.StoreCommit(d.EffAddr(), d.StoreSSN(), st.MemSize)
				untagged.StoreCommit(d.EffAddr(), d.StoreSSN())
			case st.IsLoad():
				// Equivalent inequality tests against both organisations.
				loads++
				if tagged.TestNonBypassed(d.EffAddr(), d.Dep().SSN) {
					taggedReexec++
				}
				if untagged.TestLoad(d.EffAddr(), d.Dep().SSN) {
					untaggedReexec++
				}
			}
		}
		b.ReportMetric(100*taggedReexec/loads, "tagged_reexec_%")
		b.ReportMetric(100*untaggedReexec/loads, "untagged_reexec_%")
	}
}

// --- Micro-benchmarks of the core structures ------------------------------

// BenchmarkPipelineThroughput measures raw simulation speed (simulated
// instructions per second) of the NoSQ configuration.
func BenchmarkPipelineThroughput(b *testing.B) {
	prog := workload.MustGenerate("gzip", workload.Options{Iterations: 100})
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		run, err := pipeline.MustNew(prog, pipeline.ConfigFor(pipeline.NoSQDelay, 0)).Run()
		if err != nil {
			b.Fatal(err)
		}
		committed += run.Committed
	}
	b.ReportMetric(float64(committed)/float64(b.N), "insts/op")
}

// BenchmarkEmulator measures functional emulation speed.
func BenchmarkEmulator(b *testing.B) {
	prog := workload.MustGenerate("gzip", workload.Options{Iterations: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine := emu.New(prog)
		if _, err := machine.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordTrace measures trace recording: the same functional
// emulation as BenchmarkEmulator, with every dynamic record stored, as a
// sweep or a solo simulation pays once per (benchmark, length).
func BenchmarkRecordTrace(b *testing.B) {
	prog := workload.MustGenerate("gzip", workload.Options{Iterations: 100})
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		tr, err := emu.RecordTrace(prog, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += tr.Len()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkBypassPredictor measures predict+train throughput of the
// bypassing predictor.
func BenchmarkBypassPredictor(b *testing.B) {
	p := bypass.New(bypass.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := 0x400000 + uint64(i%512)*4
		hist := uint64(i) * 2654435761
		pred := p.Predict(pc, hist)
		if i%7 == 0 {
			p.Train(pc, hist, bypass.Outcome{Bypassable: true, Distance: uint64(i % 60), StoreSize: 8}, pred.FromPathTable)
		} else {
			p.Reward(pc, hist)
		}
	}
}

// BenchmarkTSSBF measures the tagged SSBF's store-update plus load-test
// throughput.
func BenchmarkTSSBF(b *testing.B) {
	f := svw.NewTSSBF(128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%4096) * 8
		f.StoreCommit(addr, uint64(i+1), 8)
		f.TestNonBypassed(addr, uint64(i))
	}
}
