package perf

import (
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/emu"
)

// tinyRun measures a minimal grid quickly for tests.
func tinyRun(t *testing.T) *Result {
	t.Helper()
	res, err := Run(Options{
		Benchmarks: []string{"gzip"},
		Kinds:      []core.ConfigKind{core.Baseline, core.NoSQDelay},
		Iterations: 20,
		Repeats:    1,
		Revision:   "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesEntriesAndSummaries(t *testing.T) {
	res := tinyRun(t)
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(res.Entries))
	}
	for _, e := range res.Entries {
		if e.Instructions == 0 || e.Cycles == 0 {
			t.Errorf("%s/%s: empty measurement %+v", e.Benchmark, e.Config, e)
		}
		if e.InstsPerSec <= 0 || e.NsPerCycle <= 0 {
			t.Errorf("%s/%s: non-positive rates %+v", e.Benchmark, e.Config, e)
		}
	}
	if len(res.Configs) != 2 {
		t.Fatalf("config summaries = %d, want 2", len(res.Configs))
	}
	if res.OverallInstsPerSec <= 0 {
		t.Fatalf("overall throughput = %v, want > 0", res.OverallInstsPerSec)
	}
}

func TestRunMeasuresBatch(t *testing.T) {
	res := tinyRun(t)
	if res.BatchWidth != 2 {
		t.Fatalf("BatchWidth = %d, want 2", res.BatchWidth)
	}
	if len(res.BatchEntries) != 1 {
		t.Fatalf("batch entries = %d, want 1 (one per benchmark)", len(res.BatchEntries))
	}
	be := res.BatchEntries[0]
	if be.Width != 2 || be.Instructions == 0 || be.InstsPerSec <= 0 || be.Speedup <= 0 {
		t.Errorf("batch entry = %+v, want a populated width-2 measurement", be)
	}
	if res.BatchInstsPerSec <= 0 || res.BatchSpeedup <= 0 {
		t.Errorf("batch summary: insts/sec %v, speedup %v, want > 0", res.BatchInstsPerSec, res.BatchSpeedup)
	}
	// A single-kind run has nothing to batch.
	solo, err := Run(Options{Benchmarks: []string{"gzip"}, Kinds: []core.ConfigKind{core.Baseline},
		Iterations: 20, Repeats: 1, Revision: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if solo.BatchWidth != 0 || len(solo.BatchEntries) != 0 {
		t.Errorf("single-kind run recorded a batch measurement: %+v", solo.BatchEntries)
	}
}

func TestCompareGatesBatchOnlyWhenBothHaveIt(t *testing.T) {
	base := &Result{Schema: Schema, OverallInstsPerSec: 1000,
		BatchWidth: 5, BatchInstsPerSec: 5000}
	cur := &Result{Schema: Schema, OverallInstsPerSec: 1000,
		BatchWidth: 5, BatchInstsPerSec: 3000}
	regs := Compare(base, cur, 20)
	if len(regs) != 1 || regs[0].Config != "batch" {
		t.Fatalf("regressions = %v, want exactly the batch throughput drop", regs)
	}
	// A baseline recorded before the batch engine existed carries no batch
	// numbers; the current result's must not be gated against zero.
	old := &Result{Schema: Schema, OverallInstsPerSec: 1000}
	if regs := Compare(old, cur, 20); len(regs) != 0 {
		t.Fatalf("batchless baseline produced regressions: %v", regs)
	}
	// And a differing width makes the numbers incomparable.
	narrow := &Result{Schema: Schema, OverallInstsPerSec: 1000,
		BatchWidth: 2, BatchInstsPerSec: 9000}
	if regs := Compare(narrow, cur, 20); len(regs) != 0 {
		t.Fatalf("width-mismatched batch gated: %v", regs)
	}
}

func TestRunMeasuresRecord(t *testing.T) {
	res := tinyRun(t)
	if res.RecordInstsPerSec <= 0 {
		t.Errorf("record throughput = %v, want > 0", res.RecordInstsPerSec)
	}
	// Every recorded instruction occupies at least one record.
	if min := float64(unsafe.Sizeof(emu.DynInst{})); res.RecordBytesPerInst < min {
		t.Errorf("record bytes/inst = %v, want at least the record size %v", res.RecordBytesPerInst, min)
	}
	if s := Summarize(res); !strings.Contains(s, "record (geomean)") {
		t.Errorf("summary has no recording row:\n%s", s)
	}
}

func TestCompareGatesRecordOnlyWhenBothHaveIt(t *testing.T) {
	base := &Result{Schema: Schema, OverallInstsPerSec: 1000,
		RecordInstsPerSec: 10000, RecordBytesPerInst: 120}
	cur := &Result{Schema: Schema, OverallInstsPerSec: 1000,
		RecordInstsPerSec: 7000, RecordBytesPerInst: 200}
	regs := Compare(base, cur, 20)
	got := map[string]bool{}
	for _, r := range regs {
		if r.Config != "record" {
			t.Errorf("unexpected regression %v", r)
		}
		got[r.Metric] = true
	}
	if len(regs) != 2 || !got["insts/sec"] || !got["bytes/inst"] {
		t.Fatalf("regressions = %v, want the record throughput drop and the bytes/inst growth", regs)
	}
	// Within the limits: a 10% slowdown and 40% more bytes pass.
	near := &Result{Schema: Schema, OverallInstsPerSec: 1000,
		RecordInstsPerSec: 9000, RecordBytesPerInst: 168}
	if regs := Compare(base, near, 20); len(regs) != 0 {
		t.Fatalf("within-limit recording change gated: %v", regs)
	}
	// A baseline recorded before recording was timed has neither field, and
	// a current result without them is not gated against the baseline's.
	old := &Result{Schema: Schema, OverallInstsPerSec: 1000}
	if regs := Compare(old, cur, 20); len(regs) != 0 {
		t.Fatalf("recordless baseline produced regressions: %v", regs)
	}
	if regs := Compare(base, old, 20); len(regs) != 0 {
		t.Fatalf("recordless current result produced regressions: %v", regs)
	}
}

func TestMarkdownSummaryDeltasAndImprovementFlag(t *testing.T) {
	base := &Result{Schema: Schema, Revision: "base",
		Configs:            []ConfigSummary{{Config: "a", InstsPerSec: 1000, AllocsPerKInst: 10}},
		OverallInstsPerSec: 1000, BatchWidth: 5, BatchInstsPerSec: 4000, BatchSpeedup: 1.3,
		RecordInstsPerSec: 2000, RecordBytesPerInst: 200}
	cur := &Result{Schema: Schema, Revision: "cur",
		Configs:            []ConfigSummary{{Config: "a", InstsPerSec: 1500, AllocsPerKInst: 10}},
		OverallInstsPerSec: 1500, BatchWidth: 5, BatchInstsPerSec: 6000, BatchSpeedup: 1.6,
		RecordInstsPerSec: 4000, RecordBytesPerInst: 120}
	md := MarkdownSummary(base, cur, 20)
	for _, want := range []string{"| a | 1500 | +50.0% |", "batch (width 5)", "1.60x vs scalar",
		"| **record (emu.RecordTrace)** | 4000 | +100.0% | 120.0 bytes/inst | -40.0% |",
		"BENCH_baseline.json", "a, overall, batch, record"} {
		if !strings.Contains(md, want) {
			t.Errorf("summary missing %q:\n%s", want, md)
		}
	}
	// Within-threshold changes carry no baseline-refresh reminder.
	if md := MarkdownSummary(base, base, 20); strings.Contains(md, "Refresh") {
		t.Errorf("no-change summary still asks for a baseline refresh:\n%s", md)
	}
	// No baseline: rows render with dashes, nothing is flagged.
	md = MarkdownSummary(nil, cur, 20)
	if !strings.Contains(md, "—") || strings.Contains(md, "Refresh") {
		t.Errorf("baseline-less summary malformed:\n%s", md)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	res := tinyRun(t)
	path := filepath.Join(t.TempDir(), FileName(res.Revision))
	if err := WriteFile(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Revision != res.Revision || len(got.Entries) != len(res.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, res)
	}
}

func TestReadFileRejectsUnknownSchema(t *testing.T) {
	res := tinyRun(t)
	res.Schema = Schema + 1
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := WriteFile(path, res); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Result{
		Schema:             Schema,
		Configs:            []ConfigSummary{{Config: "a", InstsPerSec: 1000}, {Config: "b", InstsPerSec: 1000}},
		OverallInstsPerSec: 1000,
	}
	cur := &Result{
		Schema:             Schema,
		Configs:            []ConfigSummary{{Config: "a", InstsPerSec: 700}, {Config: "b", InstsPerSec: 950}},
		OverallInstsPerSec: 815,
	}
	regs := Compare(base, cur, 20)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly the 30%% drop on config a", regs)
	}
	if regs[0].Config != "a" || regs[0].Metric != "insts/sec" {
		t.Fatalf("regression = %+v, want insts/sec on config a", regs[0])
	}

	// A faster current result never regresses.
	if regs := Compare(cur, base, 20); len(regs) != 0 {
		t.Fatalf("speed-up flagged as regression: %v", regs)
	}
}

func TestCompareFlagsAllocationGrowth(t *testing.T) {
	base := &Result{
		Schema:             Schema,
		Configs:            []ConfigSummary{{Config: "a", InstsPerSec: 1000, AllocsPerKInst: 50}},
		OverallInstsPerSec: 1000,
	}
	cur := &Result{
		Schema:             Schema,
		Configs:            []ConfigSummary{{Config: "a", InstsPerSec: 1000, AllocsPerKInst: 200}},
		OverallInstsPerSec: 1000,
	}
	regs := Compare(base, cur, 20)
	if len(regs) != 1 || regs[0].Metric != "allocs/kinst" {
		t.Fatalf("regressions = %v, want the 4x allocs/kinst growth", regs)
	}
	// Small absolute growth on near-zero counts is within the slack.
	cur.Configs[0].AllocsPerKInst = base.Configs[0].AllocsPerKInst*1.5 + 0.5
	if regs := Compare(base, cur, 20); len(regs) != 0 {
		t.Fatalf("alloc growth within slack flagged: %v", regs)
	}
}

func TestCompareSkipsMissingConfigs(t *testing.T) {
	base := &Result{Schema: Schema, Configs: []ConfigSummary{{Config: "gone", InstsPerSec: 1000}}}
	cur := &Result{Schema: Schema, Configs: []ConfigSummary{{Config: "new", InstsPerSec: 10}}}
	if regs := Compare(base, cur, 20); len(regs) != 0 {
		t.Fatalf("mismatched config sets should not regress: %v", regs)
	}
}

func TestComparableRejectsMismatchedSettings(t *testing.T) {
	a := &Result{Schema: Schema, Iterations: 120, Window: 128, Benchmarks: []string{"gzip", "applu"}}
	if err := Comparable(a, a); err != nil {
		t.Fatalf("identical settings rejected: %v", err)
	}
	b := *a
	b.Iterations = 40
	if err := Comparable(a, &b); err == nil {
		t.Error("differing iterations accepted")
	}
	b = *a
	b.Window = 256
	if err := Comparable(a, &b); err == nil {
		t.Error("differing window accepted")
	}
	b = *a
	b.Benchmarks = []string{"gzip"}
	if err := Comparable(a, &b); err == nil {
		t.Error("differing benchmark sets accepted")
	}
	b = *a
	b.Configs = []ConfigSummary{{Config: "nosq-delay"}}
	if err := Comparable(a, &b); err == nil {
		t.Error("differing configuration sets accepted")
	}
}
