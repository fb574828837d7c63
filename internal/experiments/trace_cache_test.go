package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/workload"
)

// TestTraceCacheConcurrentGetRelease drives the refcounted trace cache the
// way a sweep's worker pool does — many goroutines getting and releasing the
// same benchmark concurrently (run with -race in CI). Every getter must see
// the one shared trace, and the entry must be dropped exactly when the last
// pending job releases it.
func TestTraceCacheConcurrentGetRelease(t *testing.T) {
	const jobs = 32
	pending := make([]sweepJob, jobs)
	for i := range pending {
		pending[i] = sweepJob{index: i, benchmark: "gzip"}
	}
	c, err := newTraceCache(benchmarkSource("", []string{"gzip"}), pending, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}

	traces := make([]interface{}, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.release("gzip")
			tr, err := c.get("gzip")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			traces[i] = tr
		}(i)
	}
	wg.Wait()

	for i := 1; i < jobs; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("goroutine %d got a different trace instance", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 || len(c.left) != 0 {
		t.Errorf("cache not empty after final release: %d entries, %d refcounts",
			len(c.entries), len(c.left))
	}
}

// TestTraceCacheRecordErrorShared: when trace recording fails, every
// concurrent getter of that benchmark must observe the same error (the
// record closure runs exactly once), and releases must still drain the
// entry.
func TestTraceCacheRecordErrorShared(t *testing.T) {
	const jobs = 16
	recordErr := errors.New("synthetic trace-recording failure")
	calls := 0
	c := &traceCache{
		entries: make(map[string]*traceEntry),
		left:    map[string]int{"broken": jobs},
	}
	e := &traceEntry{}
	e.record = func() {
		calls++ // safe: once.Do serializes the recording
		e.err = recordErr
	}
	c.entries["broken"] = e

	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.release("broken")
			tr, err := c.get("broken")
			if !errors.Is(err, recordErr) {
				t.Errorf("get error = %v, want the recording failure", err)
			}
			if tr != nil {
				t.Error("got a trace alongside the error")
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("record ran %d times, want once", calls)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 {
		t.Errorf("failed entry not dropped after releases")
	}
}

// TestTraceCacheConcurrentMetaSharing drives getMeta the way concurrent
// config-parallel batch groups of one benchmark do: every group must see the
// same pre-decoded TraceMeta instance (built exactly once), interleaved
// arbitrarily with plain get calls (run with -race in CI).
func TestTraceCacheConcurrentMetaSharing(t *testing.T) {
	const jobs = 32
	pending := make([]sweepJob, jobs)
	for i := range pending {
		pending[i] = sweepJob{index: i, benchmark: "gzip"}
	}
	c, err := newTraceCache(benchmarkSource("", []string{"gzip"}), pending, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}

	metas := make([]interface{}, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.release("gzip")
			if i%2 == 0 {
				if _, err := c.get("gzip"); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
			m, err := c.getMeta("gzip")
			if err != nil {
				t.Errorf("getMeta: %v", err)
				return
			}
			metas[i] = m
		}(i)
	}
	wg.Wait()

	for i := 1; i < jobs; i++ {
		if metas[i] != metas[0] {
			t.Fatalf("goroutine %d got a different TraceMeta instance", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 {
		t.Errorf("cache not drained after final release")
	}
}

// TestTraceCacheMetaPropagatesRecordError: when trace recording fails,
// getMeta must surface that error rather than pre-decoding a nil trace.
func TestTraceCacheMetaPropagatesRecordError(t *testing.T) {
	recordErr := errors.New("synthetic trace-recording failure")
	c := &traceCache{
		entries: make(map[string]*traceEntry),
		left:    map[string]int{"broken": 1},
	}
	e := &traceEntry{}
	e.record = func() { e.err = recordErr }
	c.entries["broken"] = e
	if _, err := c.getMeta("broken"); !errors.Is(err, recordErr) {
		t.Errorf("getMeta error = %v, want the recording failure", err)
	}
}

// TestTraceCacheUnknownBenchmark: a benchmark with no entry is an error, not
// a panic — the sweep engine treats it as a failed job.
func TestTraceCacheUnknownBenchmark(t *testing.T) {
	c, err := newTraceCache(source{}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.get("nonesuch"); err == nil {
		t.Fatal("get of unknown benchmark should error")
	}
}

// TestTraceCacheReleaseKeepsSharedEntryAlive: releasing one of a
// benchmark's jobs must not drop the trace while other jobs still hold
// pending references.
func TestTraceCacheReleaseKeepsSharedEntryAlive(t *testing.T) {
	pending := []sweepJob{{index: 0, benchmark: "gzip"}, {index: 1, benchmark: "gzip"}}
	c, err := newTraceCache(benchmarkSource("", []string{"gzip"}), pending, Options{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c.release("gzip")
	second, err := c.get("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("trace dropped while a job was still pending")
	}
	c.release("gzip")
	if _, err := c.get("gzip"); err == nil {
		t.Fatal("trace still served after the last pending job released it")
	}
}

// TestSweepRecordsOnlyMaxInsts: when Options.MaxInsts bounds every pair, a
// sweep records each benchmark only up to that bound, and every run still
// equals pipeline.New on the program, which records under the same bound.
func TestSweepRecordsOnlyMaxInsts(t *testing.T) {
	const bound = 3000
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	opts := Options{Iterations: 200, MaxInsts: bound, Parallelism: 2}

	progs := make(map[string]*program.Program, len(benchmarks))
	var pending []sweepJob
	for _, b := range benchmarks {
		p, err := workload.Generate(b, workload.Options{Iterations: opts.Iterations})
		if err != nil {
			t.Fatal(err)
		}
		whole, err := emu.RecordTrace(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if whole.Len() <= bound {
			t.Fatalf("%s runs %d instructions; the test needs more than %d", b, whole.Len(), bound)
		}
		progs[b] = p
		pending = append(pending, sweepJob{index: len(pending), benchmark: b})
	}
	c, err := newTraceCache(benchmarkSource("", benchmarks), pending, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benchmarks {
		tr, err := c.get(b)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != bound {
			t.Errorf("%s: cached trace holds %d instructions, want the bound %d", b, tr.Len(), bound)
		}
	}

	runs, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d pairs failed", sum.Failed)
	}
	for _, b := range benchmarks {
		for key, cfg := range cfgs {
			cfg.MaxInsts = bound
			sim, err := pipeline.New(progs[b], cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := runs[b][key]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: sweep run differs from pipeline.New:\n got %+v\nwant %+v", b, key, got, want)
			}
		}
	}
}
