package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Small, fast experiment options: a handful of benchmarks, short workloads.
func quickOpts(benchmarks ...string) Options {
	return Options{Iterations: 25, Benchmarks: benchmarks, Parallelism: 4}
}

func TestTable5Quick(t *testing.T) {
	tbl, rows, err := Table5(quickOpts("gzip", "g721.e", "applu"))
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	// 3 benchmarks + 3 suite means (one per suite represented).
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if tbl.NumRows() != len(rows) {
		t.Errorf("table rows %d != struct rows %d", tbl.NumRows(), len(rows))
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	// Communication rates must be in the ballpark of the paper's profile.
	gz := byName["gzip"]
	if gz.CommPct < 8 || gz.CommPct > 25 {
		t.Errorf("gzip communication %.1f%% outside plausible range", gz.CommPct)
	}
	// g721.e's partial-store pattern: delay must cut mispredictions sharply.
	g7 := byName["g721.e"]
	if g7.MisPer10kNoDelay < 50 {
		t.Errorf("g721.e no-delay mispredictions %.1f unexpectedly low", g7.MisPer10kNoDelay)
	}
	if g7.MisPer10kDelay*3 > g7.MisPer10kNoDelay {
		t.Errorf("delay should cut g721.e mispredictions: %.1f -> %.1f", g7.MisPer10kNoDelay, g7.MisPer10kDelay)
	}
	if g7.PctDelayed <= 0 {
		t.Error("g721.e should delay some loads")
	}
	if !strings.Contains(tbl.String(), "g721.e") {
		t.Error("table text missing benchmark")
	}
}

func TestFigure2Quick(t *testing.T) {
	tbl, rows, err := Figure2(quickOpts("gzip", "mesa.o", "wupwise"))
	if err != nil {
		t.Fatalf("Figure2: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		for cfg, rel := range r.Relative {
			if rel <= 0.3 || rel > 3 {
				t.Errorf("%s/%s relative time %.2f implausible", r.Benchmark, cfg, rel)
			}
		}
		if !r.IsMean && r.BaselineIPC <= 0 {
			t.Errorf("%s: missing baseline IPC", r.Benchmark)
		}
	}
	if tbl.NumRows() == 0 {
		t.Error("empty table")
	}
}

func TestFigure3UsesSelectedBenchmarksByDefault(t *testing.T) {
	// Don't run the full selected set; just verify the default selection and
	// window plumb-through using a restricted benchmark list.
	_, rows, err := Figure3(quickOpts("gap", "applu"))
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
}

func TestFigure4Quick(t *testing.T) {
	_, rows, err := Figure4(quickOpts("mesa.o", "gzip"))
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	for _, r := range rows {
		if r.Total() <= 0 || r.Total() > 1.6 {
			t.Errorf("%s: relative reads %.2f implausible", r.Benchmark, r.Total())
		}
		if r.CoreReads < r.BackendReads {
			t.Errorf("%s: back-end reads should be a small fraction (core %.2f, backend %.2f)",
				r.Benchmark, r.CoreReads, r.BackendReads)
		}
	}
	// A bypass-heavy benchmark must show a data-cache read reduction.
	for _, r := range rows {
		if r.Benchmark == "mesa.o" && r.Total() >= 1.0 {
			t.Errorf("mesa.o should reduce data-cache reads, got %.2f", r.Total())
		}
	}
}

func TestFigure5CapacityQuick(t *testing.T) {
	_, rows, err := Figure5Capacity(quickOpts("gs.d", "vpr.p"))
	if err != nil {
		t.Fatalf("Figure5Capacity: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		for _, label := range []string{"cap-512", "cap-1k", "cap-2k", "cap-4k", "cap-inf"} {
			if _, ok := r.Relative[label]; !ok {
				t.Errorf("%s missing variant %s", r.Benchmark, label)
			}
		}
	}
}

func TestFigure5HistoryQuick(t *testing.T) {
	_, rows, err := Figure5History(quickOpts("eon.k"))
	if err != nil {
		t.Fatalf("Figure5History: %v", err)
	}
	want := []string{"hist-4", "hist-8", "hist-12", "hist-8-inf"}
	for _, r := range rows {
		for _, label := range want {
			if _, ok := r.Relative[label]; !ok {
				t.Errorf("%s missing variant %s", r.Benchmark, label)
			}
		}
	}
}

func TestRunSweepErrorPropagation(t *testing.T) {
	cfg := core.ConfigFor(core.Baseline, 0)
	cfg.ROBSize = 0 // invalid: pipeline.New must reject it
	opts := Options{Iterations: 5, Parallelism: 1}
	_, _, err := runSweep(context.Background(), benchmarkSource("", []string{"gzip"}), map[string]pipeline.Config{"bad": cfg}, opts)
	if err == nil {
		t.Fatal("invalid configuration should surface as an error")
	}
	// Unknown benchmark fails during program generation.
	if _, _, err := runSweep(context.Background(), benchmarkSource("", []string{"nope"}), kindConfigs([]core.ConfigKind{core.Baseline}, 0), opts); err == nil {
		t.Fatal("unknown benchmark should surface as an error")
	}
}

func TestDefaultBenchmarksSelection(t *testing.T) {
	if got := defaultBenchmarks(Options{}, false); len(got) != 47 {
		t.Errorf("full set = %d", len(got))
	}
	if got := defaultBenchmarks(Options{}, true); len(got) != len(core.SelectedBenchmarks()) {
		t.Errorf("selected set = %d", len(got))
	}
	if got := defaultBenchmarks(Options{Benchmarks: []string{"gzip"}}, true); len(got) != 1 || got[0] != "gzip" {
		t.Errorf("override = %v", got)
	}
}

func TestSuiteHelpers(t *testing.T) {
	if suiteOf("gzip") != workload.SPECint || suiteOf("applu") != workload.SPECfp {
		t.Error("suiteOf misclassifies")
	}
	if suiteOf("unknown-name") != workload.SPECint {
		t.Error("unknown benchmark should default to SPECint")
	}
	groups := orderedBySuite([]string{"gzip", "applu", "gs.d"})
	if len(groups[workload.MediaBench]) != 1 || len(groups[workload.SPECint]) != 1 || len(groups[workload.SPECfp]) != 1 {
		t.Errorf("grouping = %v", groups)
	}
}

func TestOptionsWorkers(t *testing.T) {
	if (Options{Parallelism: 3}).workers() != 3 {
		t.Error("explicit parallelism ignored")
	}
	if (Options{}).workers() <= 0 {
		t.Error("default parallelism must be positive")
	}
}
