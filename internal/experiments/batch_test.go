package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

func groupShape(groups []sweepGroup) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		for _, j := range g.jobs {
			out[i] = append(out[i], j.index)
		}
	}
	return out
}

func TestPlanGroupsByBenchmarkAndGeometry(t *testing.T) {
	cfg128 := pipeline.Config{ROBSize: 128}
	cfg256 := pipeline.Config{ROBSize: 256}
	pending := []sweepJob{
		{index: 0, benchmark: "a", cfg: cfg128},
		{index: 1, benchmark: "a", cfg: cfg256},
		{index: 2, benchmark: "a", cfg: cfg128},
		{index: 3, benchmark: "b", cfg: cfg128},
		{index: 5, benchmark: "a", cfg: cfg256},
		{index: 8, benchmark: "b", cfg: cfg128},
	}
	got := groupShape(planGroups(pending))
	// Same benchmark + same ROB size group together even when non-adjacent
	// (sorted config keys interleave windows) or when sharding left index
	// gaps; different benchmarks and geometries never mix.
	want := [][]int{{0, 2}, {1, 5}, {3, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups = %v, want %v", got, want)
	}
}

func TestPlanGroupsCapsWidth(t *testing.T) {
	var pending []sweepJob
	for i := 0; i < batchGroupCap+3; i++ {
		pending = append(pending, sweepJob{index: i, benchmark: "a", cfg: pipeline.Config{ROBSize: 128}})
	}
	groups := planGroups(pending)
	if len(groups) != 2 || len(groups[0].jobs) != batchGroupCap || len(groups[1].jobs) != 3 {
		t.Errorf("groups = %v, want one full group of %d plus the remainder", groupShape(groups), batchGroupCap)
	}
}

// TestSweepGroupWidthDoesNotChangeRows: how the engine groups pairs into
// batches is invisible in reports. One 3-config sweep (a single width-3
// group) and three 1-config sweeps (three width-1 groups) sharing a
// checkpoint must render identical rows in every format.
func TestSweepGroupWidthDoesNotChangeRows(t *testing.T) {
	kinds := []string{core.Baseline.String(), core.NoSQDelay.String(), core.NoSQNoDelay.String()}
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	sweep := func(configs []string, checkpoint string) *Report {
		rep, err := Sweep(context.Background(), Options{
			Iterations: 25,
			Benchmarks: []string{"gzip"},
			Configs:    configs,
			Checkpoint: checkpoint,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	wide := sweep(kinds, "")
	if s := wide.Summary; s.BatchGroups != 1 || s.BatchedPairs != len(kinds) {
		t.Fatalf("3-config sweep summary = %+v, want one width-3 group", s)
	}
	for _, k := range kinds {
		if s := sweep([]string{k}, ck).Summary; s.Executed != 1 || s.BatchGroups != 0 {
			t.Fatalf("1-config sweep %s summary = %+v, want one width-1 group", k, s)
		}
	}
	narrow := sweep(kinds, ck) // every pair resumed from the width-1 runs
	if narrow.Summary.Executed != 0 || narrow.Summary.Resumed != len(kinds) {
		t.Fatalf("replay summary = %+v, want every pair resumed", narrow.Summary)
	}
	for _, format := range stats.Formats() {
		w, err := wide.Table.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		n, err := narrow.Table.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if w != n {
			t.Errorf("%s rows differ between width-3 and width-1 groups:\nwidth 3:\n%s\nwidth 1:\n%s", format, w, n)
		}
	}
}

// TestSweepSliceSplitsBatchGroup: two shard tasks whose pair lists cut
// through a batch group must produce, after merging their checkpoints,
// exactly the results of an unsplit run — each side simply batches its own
// part of the group.
func TestSweepSliceSplitsBatchGroup(t *testing.T) {
	benchmarks := []string{"gzip"}
	cfgs := kindConfigs(core.Kinds(), 0) // 5 pairs, one batchable group
	full, fullSum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs,
		Options{Iterations: 25, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fullSum.BatchedPairs != len(cfgs) {
		t.Fatalf("full run batched %d pairs, want all %d", fullSum.BatchedPairs, len(cfgs))
	}

	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	for _, pairs := range [][]int{{0, 1}, {2, 3, 4}} {
		_, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs,
			Options{Iterations: 25, Parallelism: 2, Checkpoint: ck, Pairs: pairs})
		if err != nil {
			t.Fatalf("positions %v: %v", pairs, err)
		}
		if sum.Executed != len(pairs) {
			t.Errorf("positions %v executed %d pairs, want %d", pairs, sum.Executed, len(pairs))
		}
		if sum.BatchedPairs != sum.Executed {
			t.Errorf("positions %v batched %d of their %d pairs", pairs, sum.BatchedPairs, sum.Executed)
		}
	}

	merged, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs,
		Options{Iterations: 25, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 || sum.Resumed != len(cfgs) {
		t.Fatalf("merged replay summary = %+v, want everything resumed", sum)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Error("split batch groups produced different results than the unsplit run")
	}
}

// TestRunGroupValidatesMembers: in a group mixing a valid and an invalid
// configuration, the valid pair still runs and the invalid pair reports its
// Config.Validate error.
func TestRunGroupValidatesMembers(t *testing.T) {
	cfg := core.ConfigFor(core.Baseline, 0)
	bad := cfg
	bad.IssueWidth = 0
	wantErr := bad.Validate()
	if wantErr == nil {
		t.Fatal("zero issue width passed validation")
	}
	pending := []sweepJob{
		{index: 0, benchmark: "gzip", key: "ok", cfg: cfg},
		{index: 1, benchmark: "gzip", key: "bad", cfg: bad},
	}
	traces, err := newTraceCache(benchmarkSource("", []string{"gzip"}), pending, Options{Iterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	results := runGroup(sweepGroup{benchmark: "gzip", jobs: pending}, traces, Options{})
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].err != nil || results[0].run.Committed == 0 {
		t.Errorf("good pair: err=%v run=%+v, want a successful run", results[0].err, results[0].run)
	}
	if results[1].err == nil || results[1].err.Error() != wantErr.Error() {
		t.Errorf("bad pair error = %v, want %v", results[1].err, wantErr)
	}
}
