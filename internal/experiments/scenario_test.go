package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

func testScenario() *workload.Scenario {
	return &workload.Scenario{
		Name:       "test/inline",
		Iterations: 15,
		Mix:        &workload.SlotMix{IndepPct: 60, FullCommPct: 30, PartialPct: 10},
	}
}

func TestScenarioExperimentInlineSpec(t *testing.T) {
	exp, err := Lookup("scenario")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Scenario:    testScenario(),
		Configs:     []string{"nosq-delay", "assoc-sq-storesets"},
		Parallelism: 2,
	}
	rep, err := exp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := rep.Rows.([]SweepRow)
	if !ok || len(rows) != 2 {
		t.Fatalf("rows = %T (%d), want 2 SweepRows", rep.Rows, len(rows))
	}
	for _, r := range rows {
		if r.Benchmark != "test/inline" || r.Suite != workload.Custom {
			t.Errorf("row = %+v, want scenario name + custom suite", r)
		}
		if r.Committed == 0 || r.Cycles == 0 {
			t.Errorf("row %s/%s has zero measurements", r.Benchmark, r.Config)
		}
	}
	// The report must carry the scenario identity (names + content scope).
	var sawNames, sawScope bool
	for _, m := range rep.Meta {
		switch m.Key {
		case "scenarios":
			sawNames = m.Value == "test/inline"
		case "scenario-scope":
			sawScope = strings.HasPrefix(m.Value, "scenario:")
		}
	}
	if !sawNames || !sawScope {
		t.Errorf("meta missing scenario identity: %+v", rep.Meta)
	}
}

// TestScenarioReportDeterministic: two runs of the same spec render
// byte-identically — the property the result cache, the distributed fleet,
// and the nightly CI comparison all build on.
func TestScenarioReportDeterministic(t *testing.T) {
	exp, _ := Lookup("scenario")
	opts := Options{
		Scenario:    testScenario(),
		Configs:     []string{"nosq-delay"},
		Parallelism: 2,
	}
	a, err := exp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range stats.Formats() {
		ra, err := a.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Errorf("%s render differs between identical runs:\n%s\n---\n%s", format, ra, rb)
		}
	}
}

// TestScenarioResultKeysDistinct: entries recorded for two scenarios that
// differ in a single knob must have different store keys even though the
// scenarios share a name — the property that keeps the server's
// content-addressed cache collision-free across scenarios.
func TestScenarioResultKeysDistinct(t *testing.T) {
	exp, _ := Lookup("scenario")
	run := func(s *workload.Scenario) []CheckpointEntry {
		col := &entryCollector{}
		opts := Options{
			Scenario:    s,
			Configs:     []string{"nosq-delay"},
			Parallelism: 1,
			Progress:    col,
		}
		if _, err := exp.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		if len(col.entries) == 0 {
			t.Fatal("no entries recorded")
		}
		return col.entries
	}
	a := run(testScenario())
	changed := testScenario()
	changed.Mix = &workload.SlotMix{IndepPct: 59, FullCommPct: 31, PartialPct: 10}
	b := run(changed)
	for _, ea := range a {
		for _, eb := range b {
			if ea.Key() == eb.Key() {
				t.Errorf("differing scenarios share result key %q (scopes %q / %q)",
					ea.Key(), ea.Experiment, eb.Experiment)
			}
		}
	}

	// And an identical spec resumes from the recorded entries: zero executed.
	col := &entryCollector{}
	opts := Options{
		Scenario:    testScenario(),
		Configs:     []string{"nosq-delay"},
		Parallelism: 1,
		Progress:    col,
		Store:       staticStore{entries: a},
	}
	rep, err := exp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Executed != 0 || rep.Summary.Resumed != len(a) {
		t.Errorf("identical spec re-ran: %+v, want all %d resumed", rep.Summary, len(a))
	}
}

func TestScenarioExperimentRejectsBadInput(t *testing.T) {
	exp, _ := Lookup("scenario")
	ctx := context.Background()
	if _, err := exp.Run(ctx, Options{Benchmarks: []string{"gzip"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown stress scenario") {
		t.Errorf("unknown stress scenario name: err = %v", err)
	}
	bad := testScenario()
	bad.Iterations = -2
	if _, err := exp.Run(ctx, Options{Scenario: bad}); err == nil ||
		!strings.Contains(err.Error(), "iterations must be positive") {
		t.Errorf("invalid inline scenario: err = %v", err)
	}
	if _, err := exp.Run(ctx, Options{Scenario: testScenario(), Windows: []int{0}}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := exp.Run(ctx, Options{Scenario: testScenario(), Configs: []string{"warp-drive"}}); err == nil {
		t.Error("unknown config accepted")
	}
}

// TestScenarioExecutorByteIdentical: the scenario experiment run through the
// remote-execution seam (two emulated workers on contiguous pair slices,
// exactly like the distributed coordinator) merges byte-identically to a
// local run — the unit-level form of the fleet acceptance criterion.
func TestScenarioExecutorByteIdentical(t *testing.T) {
	exp, _ := Lookup("scenario")
	base := Options{
		Scenario:    testScenario(),
		Configs:     []string{"nosq-delay", "assoc-sq-storesets", "perfect-smb"},
		Parallelism: 2,
	}
	ctx := context.Background()

	refRep, err := exp.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}

	distOpts := base
	distOpts.Executor = func(ctx context.Context, req ExecRequest) error {
		half := len(req.Pending) / 2
		if half == 0 {
			half = 1
		}
		chunks := [][]PairJob{req.Pending[:half], req.Pending[half:]}
		var wg sync.WaitGroup
		errCh := make(chan error, len(chunks))
		for _, chunk := range chunks {
			if len(chunk) == 0 {
				continue
			}
			start, end := chunk[0].Index, chunk[len(chunk)-1].Index+1
			byPair := make(map[string]PairJob, len(chunk))
			for _, pj := range chunk {
				byPair[pj.Benchmark+"\x00"+pj.Config] = pj
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				col := &entryCollector{}
				wopts := base
				wopts.Slice = &PairSlice{Start: start, End: end}
				wopts.Progress = col
				if _, err := exp.Run(ctx, wopts); err != nil {
					errCh <- err
					return
				}
				for _, e := range col.entries {
					req.Emit(byPair[e.Benchmark+"\x00"+e.Config], e.Run)
				}
			}()
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	}
	distRep, err := exp.Run(ctx, distOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Batch accounting covers only locally simulated pairs; an executor run
	// defers execution.
	if refSum, distSum := measured(refRep.Summary), measured(distRep.Summary); refSum != distSum {
		t.Errorf("summaries differ: local %+v, distributed %+v", refSum, distSum)
	}
	for _, format := range stats.Formats() {
		ref, _ := refRep.Render(format)
		dist, _ := distRep.Render(format)
		if ref != dist {
			t.Errorf("%s render differs between local and executor-distributed runs", format)
		}
	}
}

// TestScenarioStressSuiteDefault: with no inline spec the experiment runs the
// built-in stress suite, one row per (scenario, config).
func TestScenarioStressSuiteDefault(t *testing.T) {
	exp, _ := Lookup("scenario")
	opts := Options{
		Iterations:  10, // override the suite's own larger counts to keep the test quick
		Configs:     []string{"nosq-delay"},
		Parallelism: 4,
	}
	rep, err := exp.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows.([]SweepRow)
	names := workload.StressScenarioNames()
	if len(rows) != len(names) {
		t.Fatalf("rows = %d, want one per stress scenario (%d)", len(rows), len(names))
	}
	for i, r := range rows {
		if r.Benchmark != names[i] {
			t.Errorf("row %d = %q, want %q (suite order is the pair order)", i, r.Benchmark, names[i])
		}
	}
}
