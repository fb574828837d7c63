package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/workload"
)

// writeTestCorpus commits one tiny corpus entry to a temp directory and
// returns the directory, for tests that exercise the corpus experiment
// without depending on the repository's committed bench/corpus.
func writeTestCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	scn := workload.Scenario{
		Name:          "tuned/test/entry",
		Iterations:    25,
		StoreDistance: workload.DistanceBeyondPredictor,
	}
	e := corpus.Entry{
		Scenario: scn,
		Provenance: corpus.Provenance{
			Objective:    "flush-rate",
			Score:        1,
			Config:       "nosq-delay",
			Window:       128,
			Iterations:   25,
			ScenarioHash: scn.Hash(),
		},
	}
	if _, err := corpus.WriteEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCorpusExperimentRuns(t *testing.T) {
	exp, err := Lookup("corpus")
	if err != nil {
		t.Fatal(err)
	}
	dir := writeTestCorpus(t)
	rep, err := exp.Run(context.Background(), Options{
		CorpusDir:   dir,
		Configs:     []string{"nosq-delay"},
		Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := rep.Rows.([]SweepRow)
	if !ok || len(rows) != 1 {
		t.Fatalf("Rows = %T with %d entries, want 1 SweepRow", rep.Rows, len(rows))
	}
	if rows[0].Benchmark != "tuned/test/entry" || rows[0].Committed == 0 {
		t.Errorf("unexpected row: %+v", rows[0])
	}
	var sawDir, sawScope bool
	for _, m := range rep.Meta {
		switch m.Key {
		case "corpus-dir":
			sawDir = m.Value == dir
		case "scenario-scope":
			sawScope = strings.HasPrefix(m.Value, "scenario:")
		}
	}
	if !sawDir || !sawScope {
		t.Errorf("meta missing corpus-dir/scenario-scope: %+v", rep.Meta)
	}
}

// TestCorpusExperimentScopeMatchesSingleScenarioReplay pins the property the
// tuner and the result caches rely on: replaying one corpus entry through the
// scenario experiment derives the same scope — and therefore the same pair
// keys — as a single-entry corpus run, so measurements flow between search,
// corpus regression runs, and ad-hoc replay without re-simulating.
func TestCorpusExperimentScopeMatchesSingleScenarioReplay(t *testing.T) {
	dir := writeTestCorpus(t)
	entries, err := corpus.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantScope := scenarioSource(corpus.Scenarios(entries)).scope

	exp, _ := Lookup("corpus")
	rep, err := exp.Run(context.Background(), Options{
		CorpusDir: dir, Configs: []string{"nosq-delay"}, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ""
	for _, m := range rep.Meta {
		if m.Key == "scenario-scope" {
			got = m.Value
		}
	}
	if got != wantScope {
		t.Errorf("corpus scope %q, want single-scenario scope %q", got, wantScope)
	}
}

func TestCorpusExperimentFilterAndErrors(t *testing.T) {
	exp, _ := Lookup("corpus")

	if _, err := exp.Run(context.Background(), Options{CorpusDir: t.TempDir()}); err == nil {
		t.Error("empty corpus directory should be an error, not a trivially green run")
	}

	dir := writeTestCorpus(t)
	if _, err := exp.Run(context.Background(), Options{
		CorpusDir: dir, Benchmarks: []string{"no/such/entry"},
	}); err == nil || !strings.Contains(err.Error(), "no corpus entry") {
		t.Errorf("unknown -benchmarks filter should name the problem, got %v", err)
	}
}
