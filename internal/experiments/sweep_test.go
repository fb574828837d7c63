package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// countCheckpointPairs returns how many lines the checkpoint holds for each
// (benchmark, config) pair — a pair that re-ran appears more than once.
func countCheckpointPairs(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e CheckpointEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("malformed checkpoint line %q: %v", sc.Text(), err)
		}
		counts[e.Key()]++
	}
	return counts
}

// measured returns the summary without its execution-only fields, which
// describe how the pairs were simulated (BatchGroups, BatchedPairs) and not
// what was measured, so two runs of one grid that executed differently
// compare equal.
func measured(s Summary) Summary {
	s.BatchGroups, s.BatchedPairs = 0, 0
	return s
}

func TestSweepCheckpointResume(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	opts := Options{Iterations: 25, Parallelism: 2, Checkpoint: ck}

	first, sum1, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Executed != 4 || sum1.Resumed != 0 || sum1.Total != 4 {
		t.Fatalf("first run summary = %+v", sum1)
	}

	second, sum2, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Executed != 0 || sum2.Resumed != 4 {
		t.Fatalf("resumed run summary = %+v, want everything resumed", sum2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("resumed results differ from original run")
	}
	for pair, n := range countCheckpointPairs(t, ck) {
		if n != 1 {
			t.Errorf("pair %q recorded %d times, want 1 (re-ran?)", pair, n)
		}
	}
}

// TestSweepInterruptedResume kills a sweep mid-way (cancels its context
// deterministically after the first checkpoint line lands) and verifies the
// follow-up run picks up the remaining pairs without re-running finished
// ones.
func TestSweepInterruptedResume(t *testing.T) {
	benchmarks := []string{"gzip", "applu", "mesa.o", "vortex"}
	cfgs := kindConfigs(core.Kinds(), 0)
	total := len(benchmarks) * len(cfgs)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Iterations: 40, Parallelism: 1, Checkpoint: ck,
		afterCheckpoint: func(n int) {
			if n == 1 {
				cancel()
			}
		}}

	_, sum1, err := runSweep(ctx, benchmarkSource("", benchmarks), cfgs, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v, want context.Canceled", err)
	}
	if sum1.Executed == 0 || sum1.Executed == total {
		t.Fatalf("interruption did not land mid-sweep: %+v", sum1)
	}
	opts.afterCheckpoint = nil

	res, sum2, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != sum1.Executed {
		t.Errorf("resumed %d pairs, want the %d finished before the kill", sum2.Resumed, sum1.Executed)
	}
	if sum2.Executed != total-sum1.Executed {
		t.Errorf("re-ran %d pairs, want %d", sum2.Executed, total-sum1.Executed)
	}
	for pair, n := range countCheckpointPairs(t, ck) {
		if n != 1 {
			t.Errorf("pair %q recorded %d times, want 1 (re-ran after resume)", pair, n)
		}
	}
	for _, b := range benchmarks {
		if len(res[b]) != len(cfgs) {
			t.Errorf("%s: %d configs after resume, want %d", b, len(res[b]), len(cfgs))
		}
	}
}

func TestSweepShardsPartitionJobs(t *testing.T) {
	benchmarks := []string{"gzip", "applu", "mesa.o"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	total := len(benchmarks) * len(cfgs)
	dir := t.TempDir()

	// Run each shard into its own checkpoint, then merge by concatenation.
	merged := filepath.Join(dir, "merged.jsonl")
	mf, err := os.Create(merged)
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for shard := 0; shard < 3; shard++ {
		ck := filepath.Join(dir, "shard.jsonl")
		os.Remove(ck)
		opts := Options{Iterations: 25, Parallelism: 2, Shards: 3, ShardIndex: shard, Checkpoint: ck}
		_, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if sum.Executed+sum.SkippedShard != total {
			t.Errorf("shard %d summary = %+v", shard, sum)
		}
		executed += sum.Executed
		b, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		mf.Write(b)
	}
	mf.Close()
	if executed != total {
		t.Fatalf("shards executed %d jobs in total, want %d (overlap or gap)", executed, total)
	}

	// The merged checkpoint replays the full grid with zero execution.
	res, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs,
		Options{Iterations: 25, Checkpoint: merged})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 || sum.Resumed != total {
		t.Fatalf("merged replay summary = %+v", sum)
	}
	for _, b := range benchmarks {
		if len(res[b]) != len(cfgs) {
			t.Errorf("%s: merged results incomplete", b)
		}
	}
}

// TestShardedFigureDropsIncompleteBenchmarks: a table/figure experiment run
// under shard selection must drop benchmarks with missing cells rather than
// render rows from zero-value runs, and the per-shard checkpoints must merge
// back into the complete presentation.
func TestShardedFigureDropsIncompleteBenchmarks(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	dir := t.TempDir()
	merged := filepath.Join(dir, "merged.jsonl")
	for shard := 0; shard < 2; shard++ {
		opts := Options{Iterations: 10, Benchmarks: benchmarks, Parallelism: 2,
			Shards: 2, ShardIndex: shard, Checkpoint: merged}
		rep, rows := runRows[RelTimeRow](t, "fig2", opts)
		sum := rep.Summary
		for _, r := range rows {
			if !r.IsMean && r.BaselineIPC <= 0 {
				t.Errorf("shard %d rendered %s from zero-value runs", shard, r.Benchmark)
			}
		}
		if shard == 0 && sum.Incomplete == 0 {
			t.Errorf("shard 0 summary = %+v, want incomplete benchmarks counted", sum)
		}
	}
	// The second shard resumed the first's pairs from the shared checkpoint,
	// so it already rendered the full table; a plain replay must too.
	rep, rows := runRows[RelTimeRow](t, "fig2", Options{Iterations: 10, Benchmarks: benchmarks, Checkpoint: merged})
	sum := rep.Summary
	if sum.Executed != 0 || sum.Incomplete != 0 {
		t.Errorf("merged replay summary = %+v, want fully resumed and complete", sum)
	}
	var names []string
	for _, r := range rows {
		if !r.IsMean {
			names = append(names, r.Benchmark)
		}
	}
	if len(names) != 2 {
		t.Errorf("merged replay rendered %v, want both benchmarks", names)
	}
}

// TestCheckpointScopedPerExperiment: two experiments sharing one checkpoint
// file must never resume each other's runs, even when their configuration
// keys collide (fig2 and fig3 both key cells by bare kind name but run at
// different windows).
func TestCheckpointScopedPerExperiment(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "shared.jsonl")
	opts := Options{Iterations: 10, Benchmarks: []string{"gzip"}, Parallelism: 2, Checkpoint: ck}

	rep, _ := runRows[RelTimeRow](t, "fig2", opts)
	sum2 := rep.Summary
	if sum2.Executed == 0 || sum2.Resumed != 0 {
		t.Fatalf("fig2 summary = %+v", sum2)
	}
	rep, _ = runRows[RelTimeRow](t, "fig3", opts)
	sum3 := rep.Summary
	if sum3.Resumed != 0 {
		t.Fatalf("fig3 resumed %d of fig2's runs from the shared checkpoint", sum3.Resumed)
	}
	if sum3.Executed != sum2.Executed {
		t.Fatalf("fig3 summary = %+v, want all %d jobs executed", sum3, sum2.Executed)
	}
	// Re-running each experiment resumes only its own scope.
	rep, _ = runRows[RelTimeRow](t, "fig2", opts)
	again := rep.Summary
	if again.Executed != 0 || again.Resumed != sum2.Executed {
		t.Fatalf("fig2 re-run summary = %+v, want fully resumed", again)
	}
}

// TestCheckpointScopedByIterations: a resume under a different workload
// length must re-run rather than serve the old measurements.
func TestCheckpointScopedByIterations(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline}, 0)
	run := func(iters int) Summary {
		_, sum, err := runSweep(context.Background(), benchmarkSource("", []string{"gzip"}), cfgs,
			Options{Iterations: iters, Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if sum := run(10); sum.Executed != 1 {
		t.Fatalf("first run summary = %+v", sum)
	}
	if sum := run(20); sum.Executed != 1 || sum.Resumed != 0 {
		t.Fatalf("different-iterations run summary = %+v, want re-run", sum)
	}
	if sum := run(10); sum.Executed != 0 || sum.Resumed != 1 {
		t.Fatalf("same-iterations re-run summary = %+v, want resumed", sum)
	}
}

func TestSweepShardValidation(t *testing.T) {
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline}, 0)
	for _, idx := range []int{-1, 2, 7} {
		_, _, err := runSweep(context.Background(), benchmarkSource("", []string{"gzip"}), cfgs,
			Options{Iterations: 5, Shards: 2, ShardIndex: idx})
		if err == nil {
			t.Errorf("shard index %d of 2 should be rejected", idx)
		}
	}
}

func TestSweepToleratesCorruptCheckpointLine(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	// A truncated trailing line, as left behind by a killed process.
	if err := os.WriteFile(ck, []byte(`{"benchmark":"gzip","config":"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline}, 0)
	_, sum, err := runSweep(context.Background(), benchmarkSource("", []string{"gzip"}), cfgs,
		Options{Iterations: 5, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 0 || sum.Executed != 1 {
		t.Errorf("summary = %+v, want the corrupt line ignored and the job run", sum)
	}
}

func TestSweepExperimentGrid(t *testing.T) {
	rep, err := Sweep(context.Background(), Options{
		Iterations:  25,
		Benchmarks:  []string{"gzip", "applu"},
		Configs:     []string{core.Baseline.String(), core.NoSQDelay.String()},
		Windows:     []int{128, 256},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows.([]SweepRow)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 2 benchmarks × 2 configs × 2 windows = 8", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 || r.IPC <= 0 {
			t.Errorf("%s/%s@%d: empty measurements %+v", r.Benchmark, r.Config, r.Window, r)
		}
		if r.Window != 128 && r.Window != 256 {
			t.Errorf("unexpected window %d", r.Window)
		}
	}
	if rep.Table.NumRows() != len(rows) {
		t.Errorf("table rows %d != struct rows %d", rep.Table.NumRows(), len(rows))
	}

	if _, err := Sweep(context.Background(), Options{Configs: []string{"no-such-config"}}); err == nil {
		t.Error("unknown config kind should error")
	}
	if _, err := Sweep(context.Background(), Options{Windows: []int{-1}}); err == nil {
		t.Error("negative window should error")
	}
}

// TestSweepDeterministicOrdering pins the shard-stability contract: the same
// shard selection always picks the same (benchmark, config) pairs, regardless
// of map iteration order.
func TestSweepDeterministicOrdering(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs(core.Kinds(), 0)
	var pairSets []map[string]int
	for trial := 0; trial < 3; trial++ {
		ck := filepath.Join(t.TempDir(), "ck.jsonl")
		_, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs,
			Options{Iterations: 10, Parallelism: 2, Shards: 3, ShardIndex: 1, Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Executed == 0 {
			t.Fatal("shard 1 of 3 should own some jobs")
		}
		pairSets = append(pairSets, countCheckpointPairs(t, ck))
	}
	if !reflect.DeepEqual(pairSets[0], pairSets[1]) || !reflect.DeepEqual(pairSets[1], pairSets[2]) {
		t.Errorf("shard job selection varies across runs: %v", pairSets)
	}
}

// TestSweepCorruptCheckpointLines: a checkpoint holding truncated or
// otherwise malformed JSONL lines (the writing process was killed mid-line)
// must not abort or poison a resume. Corrupt lines are counted and skipped —
// their jobs re-run — while intact lines still resume.
func TestSweepCorruptCheckpointLines(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	opts := Options{Iterations: 25, Parallelism: 2, Checkpoint: ck}

	first, sum1, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Executed != 4 || sum1.CorruptCheckpoint != 0 {
		t.Fatalf("first run summary = %+v", sum1)
	}

	// Corrupt the file: truncate the last line mid-JSON (as a kill during a
	// write would), and splice in garbage plus a valid-JSON line missing its
	// identifying fields.
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("checkpoint has %d lines, want 4", len(lines))
	}
	truncated := lines[3][:len(lines[3])/2]
	corrupted := bytes.Join([][]byte{
		lines[0],
		[]byte("{not json at all"),
		lines[1],
		[]byte(`{"run":{"cycles":12}}`), // parses, but has no benchmark/config
		lines[2],
		truncated,
	}, []byte("\n"))
	corrupted = append(corrupted, '\n')
	if err := os.WriteFile(ck, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	second, sum2, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatalf("resume over corrupt checkpoint failed: %v", err)
	}
	if sum2.CorruptCheckpoint != 3 {
		t.Errorf("CorruptCheckpoint = %d, want 3 (garbage, fieldless, truncated)", sum2.CorruptCheckpoint)
	}
	if sum2.Resumed != 3 {
		t.Errorf("Resumed = %d, want the 3 intact pairs", sum2.Resumed)
	}
	if sum2.Executed != 1 {
		t.Errorf("Executed = %d, want 1 (the pair whose line was truncated)", sum2.Executed)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("results after corrupt-checkpoint resume differ from the original run")
	}
}
