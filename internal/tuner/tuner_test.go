package tuner

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/simclient"
	"repro/internal/simserver"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tinyConfig is a search budget small enough for unit tests (a couple of
// seconds of simulation) but large enough to exercise selection, memoization,
// and pruning.
func tinyConfig(obj Objective) Config {
	return Config{
		Objective:   obj,
		Settings:    EvalSettings{Config: "nosq-delay", Window: 128},
		Seed:        42,
		Generations: 2,
		Population:  4,
		CorpusSize:  5,
		Iterations:  32,
	}
}

func mustObjective(t *testing.T, name string) Objective {
	t.Helper()
	obj, err := ObjectiveByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestRunDeterministic runs the same tiny search twice through the real local
// evaluator and requires identical corpora: same scenarios, same hashes, same
// scores, same order. Concurrency may reorder wall-clock work but never
// results.
func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig(mustObjective(t, "flush-rate"))
	a, err := Run(context.Background(), cfg, LocalEvaluator{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, LocalEvaluator{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Corpus) != len(b.Corpus) {
		t.Fatalf("corpus sizes differ: %d != %d", len(a.Corpus), len(b.Corpus))
	}
	for i := range a.Corpus {
		ca, cb := a.Corpus[i], b.Corpus[i]
		if ca.Hash != cb.Hash || ca.Score != cb.Score || ca.Mutation != cb.Mutation {
			t.Errorf("corpus[%d] differs: (%s %v %q) != (%s %v %q)",
				i, ca.Hash, ca.Score, ca.Mutation, cb.Hash, cb.Score, cb.Mutation)
		}
	}
	if a.StressBest != b.StressBest || a.StressBestName != b.StressBestName {
		t.Errorf("stress best differs: %v/%s != %v/%s", a.StressBest, a.StressBestName, b.StressBest, b.StressBestName)
	}
	if a.Evaluated != b.Evaluated || a.Memoized != b.Memoized {
		t.Errorf("evaluation accounting differs: %d/%d != %d/%d", a.Evaluated, a.Memoized, b.Evaluated, b.Memoized)
	}
}

// TestRunCorpusInvariants checks structural properties of a finished search:
// best-first order, filled measurements, stress-best attribution, and
// candidate lineage consistency.
func TestRunCorpusInvariants(t *testing.T) {
	res, err := Run(context.Background(), tinyConfig(mustObjective(t, "svw-miss")), LocalEvaluator{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corpus) == 0 {
		t.Fatal("empty corpus")
	}
	if res.StressBestName == "" || res.StressBest < 0 {
		t.Errorf("stress best not attributed: %v %q", res.StressBest, res.StressBestName)
	}
	for i, c := range res.Corpus {
		if i > 0 && c.Score > res.Corpus[i-1].Score {
			t.Errorf("corpus not best-first at %d: %v after %v", i, c.Score, res.Corpus[i-1].Score)
		}
		if c.Hash != c.Scenario.Hash() {
			t.Errorf("%s: stale hash", c.Scenario.Name)
		}
		if c.Measurement.Committed == 0 {
			t.Errorf("%s: empty measurement", c.Scenario.Name)
		}
		if c.Generation > 0 {
			if c.Parent == "" || c.Mutation == "" || len(c.Lineage) == 0 {
				t.Errorf("%s: bred candidate missing provenance: %+v", c.Scenario.Name, c)
			}
			if c.Lineage[len(c.Lineage)-1] != c.Mutation {
				t.Errorf("%s: lineage tail %q != mutation %q", c.Scenario.Name, c.Lineage[len(c.Lineage)-1], c.Mutation)
			}
			if !strings.HasPrefix(c.Scenario.Name, "tuned/svw-miss/") {
				t.Errorf("bred candidate named %q, want tuned/svw-miss/ prefix", c.Scenario.Name)
			}
		}
	}
}

func TestRunConfigErrors(t *testing.T) {
	eval := LocalEvaluator{}
	if _, err := Run(context.Background(), Config{}, eval); err == nil {
		t.Error("missing objective should error")
	}
	cfg := tinyConfig(mustObjective(t, "ipc-gap"))
	cfg.Settings.BaselineConfig = ""
	if _, err := Run(context.Background(), cfg, eval); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("ipc-gap without a baseline should error, got %v", err)
	}
	cfg = tinyConfig(mustObjective(t, "flush-rate"))
	cfg.Settings.Window = 0
	if _, err := Run(context.Background(), cfg, eval); err == nil {
		t.Error("zero window should error")
	}
}

func TestObjectiveScores(t *testing.T) {
	m := Measurement{SweepRow: experiments.SweepRow{Committed: 10000, Flushes: 75, Reexecutions: 30, MisPer10k: 123.5, IPC: 0.6},
		BaselineIPC: 0.8}
	cases := map[string]float64{
		"flush-rate": 7.5,
		"svw-miss":   3,
		"mispred":    123.5,
		"ipc-gap":    0.25,
	}
	for name, want := range cases {
		obj := mustObjective(t, name)
		if got := obj.Score(m); !closeEnough(got, want) {
			t.Errorf("%s.Score = %v, want %v", name, got, want)
		}
	}
	if _, err := ObjectiveByName("nope"); err == nil || !strings.Contains(err.Error(), "flush-rate") {
		t.Errorf("unknown objective error should list known ones, got %v", err)
	}
	// Degenerate measurements must not divide by zero.
	zero := Measurement{}
	for _, obj := range Objectives() {
		if got := obj.Score(zero); got != 0 {
			t.Errorf("%s.Score(zero) = %v, want 0", obj.Name, got)
		}
	}
}

// TestMeasurementFromReportJSON renders a real scenario report as JSON — the
// document a server job returns — and checks that the server evaluator reads
// from it exactly the measurement the local evaluator reads from the report's
// rows, baseline included.
func TestMeasurementFromReportJSON(t *testing.T) {
	exp, err := experiments.Lookup("scenario")
	if err != nil {
		t.Fatal(err)
	}
	settings := EvalSettings{Config: "nosq-delay", BaselineConfig: "assoc-sq-storesets", Window: 128}
	rep, err := exp.Run(context.Background(), experiments.Options{
		Scenario:    &workload.Scenario{Name: "tuner/report", Iterations: 20},
		Configs:     settings.configs(),
		Windows:     []int{settings.Window},
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := rep.Render(stats.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measurementFromReportJSON([]byte(doc), settings)
	if err != nil {
		t.Fatal(err)
	}
	want, err := measurementFromRows(rep.Rows.([]experiments.SweepRow), settings)
	if err != nil {
		t.Fatal(err)
	}
	if m != want || m.Cycles == 0 || m.BaselineIPC == 0 {
		t.Errorf("parsed measurement %+v, want %+v", m, want)
	}

	// A report missing the target cell must error, not zero-fill.
	if _, err := measurementFromReportJSON([]byte(doc), EvalSettings{Config: "perfect-smb", Window: 128}); err == nil {
		t.Error("missing config row should error")
	}
}

// TestServerEvaluatorMatchesLocal evaluates one scenario through an
// in-process simulation server and requires the measurement the local
// evaluator takes of it, baseline included.
func TestServerEvaluatorMatchesLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, err := simserver.New(simserver.Config{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	s := workload.Scenario{Name: "tuner/server", Iterations: 20}
	settings := EvalSettings{Config: "nosq-delay", BaselineConfig: "assoc-sq-storesets", Window: 128}
	got, err := ServerEvaluator{Client: simclient.New(hs.URL, nil)}.Evaluate(ctx, s, settings)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LocalEvaluator{}.Evaluate(ctx, s, settings)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.Cycles == 0 || got.BaselineIPC == 0 {
		t.Errorf("server measurement %+v, want the local %+v", got, want)
	}
}
