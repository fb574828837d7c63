package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// gridCase is one pinned run of a registered experiment.
type gridCase struct {
	name string
	exp  string
	opts Options
}

// gridGoldenCases cover the grid experiments (sweep, scenario, corpus,
// trace) and every table and figure of the paper, one of them sharded, at
// lengths small enough to run in well under a second.
func gridGoldenCases() []gridCase {
	inline := &workload.Scenario{
		Name:       "golden/inline",
		Iterations: 15,
		Mix:        &workload.SlotMix{IndepPct: 60, FullCommPct: 30, PartialPct: 10},
	}
	return []gridCase{
		{"sweep-default", "sweep", Options{Iterations: 10}},
		{"sweep-repeated-grid", "sweep", Options{Iterations: 20, Benchmarks: []string{"applu", "gzip"},
			Configs: []string{"nosq-delay", "assoc-sq-storesets", "nosq-delay"}, Windows: []int{256, 128, 256}}},
		{"sweep-shard", "sweep", Options{Iterations: 20, Benchmarks: []string{"gzip", "applu", "mesa.o"},
			Configs: []string{"assoc-sq-storesets", "nosq-delay"}, Shards: 3, ShardIndex: 1}},
		{"sweep-max-insts", "sweep", Options{Iterations: 50, Benchmarks: []string{"gzip", "g721.e"},
			Configs: []string{"nosq-delay"}, MaxInsts: 2000}},
		{"scenario-inline", "scenario", Options{Scenario: inline, Configs: []string{"nosq-delay", "perfect-smb"}}},
		{"scenario-inline-windows", "scenario", Options{Scenario: inline, Configs: []string{"nosq-delay"},
			Windows: []int{256, 128}}},
		{"scenario-stress", "scenario", Options{Iterations: 10, Configs: []string{"nosq-delay"}}},
		{"scenario-select", "scenario", Options{Iterations: 10,
			Benchmarks: []string{"stress/phase-flip", "stress/alias-storm"},
			Configs:    []string{"assoc-sq-storesets", "nosq-delay"}}},
		{"corpus", "corpus", Options{CorpusDir: filepath.Join("..", "..", DefaultCorpusDir),
			Configs: []string{"nosq-delay"}}},
		{"trace-windows", "trace", Options{TraceDir: filepath.Join("..", "..", DefaultTraceDir),
			Configs: []string{"nosq-delay", "assoc-sq-storesets"}, Windows: []int{128, 256}}},
		{"fig4", "fig4", Options{Iterations: 20, Benchmarks: []string{"gzip", "applu", "g721.e"}}},
		{"table5", "table5", Options{Iterations: 20, Benchmarks: []string{"gzip", "mesa.o"}}},
		{"table5-shard", "table5", Options{Iterations: 20, Benchmarks: []string{"gzip", "mesa.o", "applu"},
			Shards: 2, ShardIndex: 1}},
		{"fig2", "fig2", Options{Iterations: 20, Benchmarks: []string{"gzip", "mesa.o", "applu"}}},
		{"fig3", "fig3", Options{Iterations: 20, Benchmarks: []string{"gap", "applu"}}},
		{"fig5cap", "fig5cap", Options{Iterations: 20, Benchmarks: []string{"gs.d", "vpr.p"}}},
		{"fig5hist", "fig5hist", Options{Iterations: 20, Benchmarks: []string{"eon.k", "g721.e"}}},
	}
}

// TestGridReportsGolden pins what the grid experiments print: every
// rendering format of each case plus the sorted result-store keys of the
// pairs it simulated (the keys carry the experiment scope, from which the
// server's cache keys derive). Regenerate with -update only for a deliberate
// output change.
func TestGridReportsGolden(t *testing.T) {
	for _, c := range gridGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			exp, err := Lookup(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			col := &entryCollector{}
			opts := c.opts
			opts.Parallelism = 2
			opts.Progress = col
			rep, err := exp.Run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, format := range stats.Formats() {
				out, err := rep.Render(format)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "== %s\n%s", format, out)
			}
			keys := make([]string, len(col.entries))
			for i, e := range col.entries {
				keys[i] = fmt.Sprintf("%q", e.Key())
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "== keys\n%s\n", strings.Join(keys, "\n"))
			checkGolden(t, filepath.Join("testdata", "grid", c.name+".golden"), b.String())
		})
	}
}

// TestGridErrorsGolden pins the error text of each way a grid experiment
// rejects its input.
func TestGridErrorsGolden(t *testing.T) {
	cases := []gridCase{
		{"sweep-unknown-config", "sweep", Options{Configs: []string{"nosq-maybe"}}},
		{"sweep-bad-window", "sweep", Options{Windows: []int{128, 0}}},
		{"sweep-unknown-benchmark", "sweep", Options{Iterations: 10, Benchmarks: []string{"gzip", "nonesuch"},
			Configs: []string{"nosq-delay"}}},
		{"scenario-unknown-stress", "scenario", Options{Benchmarks: []string{"stress/nope"}}},
		{"scenario-duplicate-stress", "scenario", Options{Iterations: 10,
			Benchmarks: []string{"stress/phase-flip", "stress/phase-flip"}, Configs: []string{"nosq-delay"}}},
		{"scenario-invalid-spec", "scenario", Options{Scenario: &workload.Scenario{Name: "bad", Pattern: "zigzag"}}},
		{"scenario-bad-window", "scenario", Options{Scenario: &workload.Scenario{Name: "ok"}, Windows: []int{-1}}},
		{"corpus-unknown-entry", "corpus", Options{CorpusDir: filepath.Join("..", "..", DefaultCorpusDir),
			Benchmarks: []string{"no/such/entry"}}},
		{"trace-unknown-ref", "trace", Options{TraceDir: filepath.Join("..", "..", DefaultTraceDir),
			Benchmarks: []string{"gzip"}}},
		{"trace-unknown-config", "trace", Options{TraceDir: filepath.Join("..", "..", DefaultTraceDir),
			Configs: []string{"nosq-maybe"}}},
	}
	var b strings.Builder
	for _, c := range cases {
		exp, err := Lookup(c.exp)
		if err != nil {
			t.Fatal(err)
		}
		opts := c.opts
		opts.Parallelism = 2
		_, err = exp.Run(context.Background(), opts)
		fmt.Fprintf(&b, "%s: %v\n", c.name, err)
	}
	checkGolden(t, filepath.Join("testdata", "grid", "errors.golden"), b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
