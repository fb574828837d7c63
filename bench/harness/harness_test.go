package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simapi"
)

// tinyScale runs every workload's full code path in a few seconds: tiny
// jobs, and (at TestSmoke's 0.01 s) one input cycle per phase.
var tinyScale = scale{
	setupReps:     1,
	warmups:       1,
	gridIters:     [2]int{3, 6},
	singleIters:   [2]int{10, 20},
	sweepIters:    [2]int{20, 80},
	stressIters:   [2]int{5, 20},
	traceMaxInsts: [2]int{1000, 3000},
	traceIters:    20,
	traceInsts:    5000,
	decompJobs:    8,
}

func TestPercentileAndTailChoice(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p*100, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {40, 0.75, 10}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p*100, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0}, {20, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {1000, 0.99}, {14088, 0.99}} {
		if got := tailChoice(c.n); got != c.want {
			t.Errorf("tailChoice(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3.1, 2.0, 5.5, 4.2, 9.9, 1.0, 7.7}, 2.0, 7.7},
		{[]float64{5, 1}, 0, 6},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harness.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "simclient.submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "simclient.wait", Start: 30, End: 60}, // overlaps submit
		{ID: 4, Parent: 1, Name: "simserver.run", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "simserver.queued", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"harness":   40, // 100 minus [10,60] and [90,100]
		"simclient": 30 + 20,
		"simserver": 30 + 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSeedDeterminism(t *testing.T) {
	refs := []string{"a-0000000000000000", "b-1111111111111111"}
	lists := func(seed uint64) [][]simapi.JobSpec {
		var grid, single, resubmits []simapi.JobSpec
		warm := warmInstance{&service{e: env{seed: seed},
			specs: serviceSpecs(fixedSeed, saltWarm, defaultScale, refs, warmSpecs)}}
		for i := range 100 {
			grid = append(grid, gridSpec(seed, defaultScale, i))
			single = append(single, singleSpec(seed, defaultScale, i))
			resubmits = append(resubmits, warm.specs[warm.draw(i)])
		}
		return [][]simapi.JobSpec{grid, single,
			serviceSpecs(seed, saltFleet, defaultScale, refs, 320), resubmits}
	}
	a, b, c := lists(1), lists(1), lists(2)
	for k := range a {
		if !reflect.DeepEqual(a[k], b[k]) {
			t.Errorf("list %d differs between two draws from seed 1", k)
		}
		if reflect.DeepEqual(a[k], c[k]) {
			t.Errorf("list %d is the same for seeds 1 and 2", k)
		}
	}

	// Every cycle of 47 sweep-grid jobs covers every benchmark once.
	seen := make(map[string]bool)
	for _, s := range a[0][:len(core.Benchmarks())] {
		seen[s.Source.Benchmarks[0]] = true
	}
	if len(seen) != len(core.Benchmarks()) {
		t.Errorf("the first cycle covers %d of %d benchmarks", len(seen), len(core.Benchmarks()))
	}

	// No two fleet-cold jobs share a source and length, so every pair misses;
	// and every seed's list sweeps the same number of benchmarks.
	keys := make(map[string]bool)
	for _, s := range a[2] {
		b, _ := json.Marshal(s)
		if keys[string(b)] {
			t.Fatalf("fleet-cold repeats job %s", b)
		}
		keys[string(b)] = true
	}
	width := func(specs []simapi.JobSpec) (n int) {
		for _, s := range specs {
			if s.Experiment == "sweep" {
				n += len(s.Source.Benchmarks)
			}
		}
		return n
	}
	if wa, wc := width(a[2]), width(c[2]); wa != wc {
		t.Errorf("fleet-cold sweeps %d benchmarks for seed 1, %d for seed 2", wa, wc)
	}

	hash := func(seed uint64) string {
		ms, err := recordTraceSet(t.TempDir(), seed, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		return traceSetHash(ms)
	}
	if h1, h2 := hash(1), hash(1); h1 != h2 {
		t.Errorf("seed 1 recorded trace sets %s and %s", h1, h2)
	}
	if hash(1) == hash(3) {
		t.Errorf("seeds 1 and 3 recorded the same trace set")
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkDeclaration keeps BENCHMARK.json and the harness in step.
func TestBenchmarkDeclaration(t *testing.T) {
	decl, err := loadDeclaration(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench/harness"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", n, len(workloads))
	}
	names := make(map[string]bool)
	for k, w := range decl.Workloads {
		if w.Name != workloads[k].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: declared %q (%q), harness %q", k, w.Name, w.Why, workloads[k].name)
		}
		names[w.Name] = true
	}
	var e2e []metricSpec
	largest := 0.0
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range decl.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != largest || m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound: %+v", m)
		}
	}
	if len(e2e) > 16 || !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end declared %v, harness %v", e2e, endToEnd)
	}
	if len(decl.PerLayer) > 128 || !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer declared %v, harness %v", decl.PerLayer, perLayer)
	}
	for _, m := range append(e2e, decl.PerLayer...) {
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || names[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", m)
		}
		names[m.Name] = true
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks that each run is correct and prints exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 7, seconds: 0.01, trace: trace, sc: tinyScale,
				workDir: t.TempDir(), spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			doc, err := execute(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !doc.Correct || doc.Failed != 0 || doc.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, trace, doc.Correct, doc.Attempted, doc.Failed, doc.Errors)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(doc.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.name, trace, len(doc.Metrics), len(specs))
			}
			if !trace {
				for _, m := range endToEnd {
					if doc.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g", w.name, m.Name, doc.Metrics[m.Name].Value)
					}
				}
				continue
			}
			if doc.Metrics["pipeline.sim_insts"].Value == 0 || doc.Metrics["experiments.sweep_s"].Value == 0 {
				t.Errorf("%s: the decomposition measured nothing", w.name)
			}
			// Trace decode is timed only where the engine decodes: on the
			// service workloads' trace jobs. The sweeps cross no service
			// layer, so those read 0.
			service := w.name == "fleet-cold" || w.name == "service-warm"
			if got := doc.Metrics["traceio.bytes"].Value; (got > 0) != service {
				t.Errorf("%s: traceio.bytes = %g", w.name, got)
			}
			if got := doc.Metrics["simserver.submit_ms_p50"].Value; (got > 0) != service {
				t.Errorf("%s: simserver.submit_ms_p50 = %g", w.name, got)
			}
			if layers := spanLayers(t, cfg.spans); !layers["harness"] || !layers["pipeline"] || !layers["experiments"] {
				t.Errorf("%s: spans cover layers %v", w.name, layers)
			}
		}
	}
}

// slowInstance takes 20 ms per job.
type slowInstance struct{}

func (slowInstance) runJob(_ context.Context, i int, _ *tracer) outcome {
	start := time.Now()
	time.Sleep(20 * time.Millisecond)
	return outcome{job: i, start: start, end: time.Now()}
}
func (slowInstance) verify(context.Context, []outcome)    {}
func (slowInstance) decompSpecs() []simapi.JobSpec        { return nil }
func (slowInstance) inputs() (jobsHash, traceHash string) { return "", "" }
func (slowInstance) close() error                         { return nil }

// TestPhaseLimitFailsSkippedJobs checks that the jobs a phase does not start
// before its limit are reported, as failures.
func TestPhaseLimitFailsSkippedJobs(t *testing.T) {
	outs, _ := measure(context.Background(), slowInstance{}, 1, 10, 8, 30*time.Millisecond, nil)
	if len(outs) != 8 {
		t.Fatalf("%d outcomes for 8 jobs", len(outs))
	}
	var doc runDoc
	doc.tally(outs)
	if doc.Attempted != 8 || doc.Failed == 0 || doc.Failed == 8 {
		t.Errorf("attempted %d, failed %d: want 8 attempted, the skipped ones failed", doc.Attempted, doc.Failed)
	}
	for k, o := range outs {
		if o.job != 10+k {
			t.Errorf("outcome %d is job %d", k, o.job)
		}
	}
}

func spanLayers(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		layers[s.layer()] = true
	}
	return layers
}

func TestCompareVerdicts(t *testing.T) {
	decl := &declaration{}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	decl.EndToEnd = append(decl.EndToEnd, struct {
		metricSpec
		Bound float64 `json:"bound"`
	}{metricSpec{"jobs_per_s", "1/s", "higher"}, 0.1})
	set := func(vals ...float64) []runDoc {
		var docs []runDoc
		for _, v := range vals {
			docs = append(docs, runDoc{Workload: "w", Metrics: map[string]metricValue{"jobs_per_s": {Value: v}}})
		}
		return docs
	}
	base := set(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name string
		b    []runDoc
		want string
	}{
		{"same", set(100, 99, 101, 100, 98, 102, 100, 99, 101, 100), "unchanged"},
		{"faster", set(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{"slower", set(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "worse"},
		{"noisy", set(60, 140, 70, 130, 100, 65, 135, 100, 75, 125), "unresolved"},
	} {
		vs := compareSets(decl, base, c.b)
		if len(vs) != 1 || vs[0].Result != c.want {
			t.Errorf("%s: got %+v, want %s", c.name, vs, c.want)
		}
	}
}
