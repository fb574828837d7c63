package simserver

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
)

// newTestServer builds a server (workers not yet started — call srv.Start
// when the test wants execution), an httptest front end, and a typed client.
func newTestServer(t *testing.T, cfg Config) (*Server, *simclient.Client) {
	t.Helper()
	if cfg.CodeRev == "" {
		cfg.CodeRev = "test-rev"
	}
	srv, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("fresh cache reported %d corrupt lines", corrupt)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, simclient.New(hs.URL, nil)
}

// TestServerEndToEnd is the acceptance test of the simulation service:
// submit a sweep job over HTTP, stream its progress events, fetch the
// report, then re-submit the identical spec and verify it is served entirely
// from the result cache (zero pairs executed, /metricsz hit counter up) with
// results byte-identical to the direct experiments.Sweep path.
func TestServerEndToEnd(t *testing.T) {
	spec := simapi.JobSpec{
		Experiment: "sweep",
		Benchmarks: []string{"gzip", "applu"},
		Iterations: 25,
		Configs:    []string{"assoc-sq-storesets", "nosq-delay"},
		Windows:    []int{128},
	}
	wantPairs := 4 // 2 benchmarks × 2 configs × 1 window

	// The reference: the same grid through the library path, no server.
	directRep, err := experiments.Sweep(context.Background(), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	directCSV, err := directRep.Render("csv")
	if err != nil {
		t.Fatal(err)
	}

	srv, c := newTestServer(t, Config{
		Workers:     1,
		Parallelism: 2,
		CachePath:   filepath.Join(t.TempDir(), "cache.jsonl"),
	})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Deduped || info.ID == "" {
		t.Fatalf("first submission info = %+v", info)
	}

	// Stream the progress feed to completion: a planned event sizing the
	// grid, one pair event per executed simulation, and a terminal state.
	var planned *simapi.PlannedInfo
	pairs := 0
	lastSeq := 0
	terminal := ""
	err = c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error {
		if ev.Seq != lastSeq+1 {
			t.Errorf("event seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case simapi.EventPlanned:
			planned = ev.Planned
		case simapi.EventPair:
			pairs++
			if ev.Entry == nil || ev.Entry.Run.Cycles == 0 {
				t.Errorf("pair event without a run: %+v", ev)
			}
		case simapi.EventState:
			if simapi.TerminalState(ev.State) {
				terminal = ev.State
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if terminal != simapi.StateDone {
		t.Fatalf("terminal state %q, want done", terminal)
	}
	if planned == nil || planned.Total != wantPairs || planned.Cached != 0 || planned.Pending != wantPairs {
		t.Fatalf("planned = %+v, want %d fresh pairs", planned, wantPairs)
	}
	if pairs != wantPairs {
		t.Fatalf("streamed %d pair events, want %d", pairs, wantPairs)
	}

	first, err := c.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != simapi.StateDone || first.ExecutedPairs != wantPairs || first.CachedPairs != 0 {
		t.Fatalf("first job = %+v", first)
	}

	// The server's report must be byte-identical to the direct library run.
	gotCSV, err := c.Report(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != directCSV {
		t.Errorf("server CSV differs from direct experiments.Sweep CSV:\n got: %q\nwant: %q", gotCSV, directCSV)
	}
	firstJSON, err := c.Report(ctx, info.ID, "json")
	if err != nil {
		t.Fatal(err)
	}

	m0, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m0.CacheMisses != uint64(wantPairs) || m0.CacheHits != 0 {
		t.Fatalf("metrics after first job = hits %d misses %d, want 0/%d", m0.CacheHits, m0.CacheMisses, wantPairs)
	}
	if m0.CacheEntries != wantPairs || m0.JobsDone != 1 {
		t.Fatalf("metrics after first job = %+v", m0)
	}
	if m0.InstsSimulated == 0 || m0.InstsPerSecond <= 0 {
		t.Errorf("throughput metrics empty: %+v", m0)
	}

	// Identical re-submission: a new job (the first is no longer active, so
	// no dedup), served entirely from the result cache.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.ID == info.ID {
		t.Fatalf("re-submission should be a fresh job, got %+v", again)
	}
	second, err := c.Wait(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != simapi.StateDone {
		t.Fatalf("second job = %+v", second)
	}
	if second.ExecutedPairs != 0 || second.CachedPairs != wantPairs {
		t.Fatalf("second job executed %d / cached %d pairs, want 0/%d (re-simulated instead of cache-served?)",
			second.ExecutedPairs, second.CachedPairs, wantPairs)
	}

	m1, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m1.CacheHits != uint64(wantPairs) {
		t.Errorf("cache hits after re-submission = %d, want %d", m1.CacheHits, wantPairs)
	}
	if m1.CacheMisses != m0.CacheMisses {
		t.Errorf("cache misses grew %d → %d on a fully cached job", m0.CacheMisses, m1.CacheMisses)
	}

	// Cached results byte-identical: CSV exactly, JSON table section exactly
	// (the meta section legitimately differs: executed vs resumed counts).
	cachedCSV, err := c.Report(ctx, again.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(cachedCSV) != directCSV {
		t.Errorf("cache-served CSV differs from direct run")
	}
	secondJSON, err := c.Report(ctx, again.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jsonSection(t, firstJSON, "report"), jsonSection(t, secondJSON, "report")) {
		t.Errorf("cache-served JSON report section differs from executed run")
	}
}

func jsonSection(t *testing.T, doc []byte, key string) interface{} {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("bad JSON document: %v", err)
	}
	return m[key]
}

// TestServerDedupsActiveJobs: identical specs submitted while the first is
// still queued collapse onto one job (workers deliberately not started, so
// the first cannot finish first).
func TestServerDedupsActiveJobs(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}

	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != first.ID {
		t.Fatalf("duplicate submission = %+v, want dedup onto %s", dup, first.ID)
	}
	// A different priority is still the same work.
	spec.Priority = 7
	dup2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Deduped || dup2.ID != first.ID {
		t.Fatalf("priority-only variant = %+v, want dedup onto %s", dup2, first.ID)
	}
	if m := srv.Metrics(); m.JobsSubmitted != 1 || m.JobsDeduped != 2 {
		t.Errorf("metrics = submitted %d deduped %d, want 1/2", m.JobsSubmitted, m.JobsDeduped)
	}

	// Run it; once done, an identical submission is a fresh job again.
	srv.Start()
	if _, err := c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	spec.Priority = 0
	fresh, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Deduped || fresh.ID == first.ID {
		t.Fatalf("post-completion submission = %+v, want a fresh job", fresh)
	}
	if _, err := c.Wait(ctx, fresh.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServerCancelQueued: canceling before any worker runs marks the job
// canceled, ends its event stream, and report fetches say so.
func TestServerCancelQueued(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "table5", Benchmarks: []string{"gzip"}, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != simapi.StateCanceled {
		t.Fatalf("state after cancel = %q", got.State)
	}
	// The feed replays and terminates immediately.
	var last simapi.Event
	if err := c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error { last = ev; return nil }); err != nil {
		t.Fatal(err)
	}
	if last.Type != simapi.EventState || last.State != simapi.StateCanceled {
		t.Fatalf("last event = %+v, want canceled state", last)
	}
	if _, err := c.Report(ctx, info.ID, "json"); err == nil {
		t.Error("report of a canceled job should fail")
	}
}

// TestServerCancelRunning: canceling mid-run stops the sweep (the engine
// returns ctx.Err()) and the job lands in canceled, not failed.
func TestServerCancelRunning(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, Parallelism: 1})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A grid large enough to still be in flight when the cancel arrives.
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "sweep", Iterations: 200, Windows: []int{128, 256}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the running state, then cancel.
	err = c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error {
		if ev.Type == simapi.EventState && ev.State == simapi.StateRunning {
			return simclient.ErrStopStreaming
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != simapi.StateCanceled {
		t.Fatalf("final state = %q (error %q), want canceled", final.State, final.Error)
	}
}

// TestServerRejectsBadSubmissions covers the 4xx surface.
func TestServerRejectsBadSubmissions(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxIterations: 50})
	ctx := context.Background()

	cases := []simapi.JobSpec{
		{Experiment: "no-such-experiment"},
		{Experiment: ""},
		{Experiment: "sweep", Iterations: -1},
		{Experiment: "sweep", Windows: []int{0}},
		{Experiment: "fig2", Iterations: 100}, // over the server cap
	}
	for _, spec := range cases {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		} else {
			var apiErr *simclient.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 400 {
				t.Errorf("spec %+v: error %v, want 400 APIError", spec, err)
			}
		}
	}

	if _, err := c.Job(ctx, "job-999999"); err == nil {
		t.Error("unknown job id should 404")
	}
	if _, err := c.Jobs(ctx, "bogus-state"); err == nil {
		t.Error("bogus state filter should 400")
	}
	if _, err := c.Report(ctx, "job-999999", "json"); err == nil {
		t.Error("report of unknown job should 404")
	}
}

// TestSubmitRejectsUnknownConfig: a configuration name the sweep grid
// cannot resolve is a submission error, not a job that fails in a worker;
// names are trimmed as the grid trims them.
func TestSubmitRejectsUnknownConfig(t *testing.T) {
	srv, _ := rawTestServer(t, Config{Workers: 1})
	_, err := srv.Submit(simapi.JobSpec{Experiment: "sweep", Configs: []string{"nosq-delay", "bogus"}}, "")
	if err == nil || !strings.Contains(err.Error(), `unknown configuration "bogus"`) {
		t.Fatalf("Submit with an unknown configuration = %v, want an unknown-configuration error", err)
	}
	if jobs := srv.Jobs(""); len(jobs) != 0 {
		t.Fatalf("rejected submission left %d jobs", len(jobs))
	}
	if _, err := srv.Submit(simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"},
		Iterations: 10, Configs: []string{" nosq-delay "}}, ""); err != nil {
		t.Fatalf("Submit with a padded configuration name: %v", err)
	}
}

// TestServerHealthAndList: /healthz names the registered experiments, and
// the list endpoint filters by state.
func TestServerHealthAndList(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.CodeRev != "test-rev" {
		t.Fatalf("health = %+v", h)
	}
	found := false
	for _, e := range h.Experiments {
		if e == "sweep" {
			found = true
		}
	}
	if !found {
		t.Fatalf("health experiments %v missing sweep", h.Experiments)
	}

	if _, err := c.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}); err != nil {
		t.Fatal(err)
	}
	queued, err := c.Jobs(ctx, simapi.StateQueued)
	if err != nil {
		t.Fatal(err)
	}
	if len(queued) != 1 {
		t.Fatalf("queued jobs = %d, want 1", len(queued))
	}
	done, err := c.Jobs(ctx, simapi.StateDone)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("done jobs = %d, want 0", len(done))
	}
	srv.Start()
	if _, err := c.Wait(ctx, queued[0].ID); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsSubmitAfterShutdown: once the queue is closed, a
// submission must fail with ErrShuttingDown (503 over HTTP) instead of
// registering a job no worker will ever run.
func TestServerRejectsSubmitAfterShutdown(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10})
	if err == nil {
		t.Fatal("submit after shutdown should fail")
	}
	var apiErr *simclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("error = %v, want 503 APIError", err)
	}
	if jobs, err := c.Jobs(ctx, simapi.StateQueued); err != nil || len(jobs) != 0 {
		t.Fatalf("queued jobs after rejected submit = %v (err %v), want none", jobs, err)
	}
}

// TestServerEvictsOldFinishedJobs: terminal jobs past MaxFinishedJobs are
// evicted (404 afterwards) so a long-lived server's registry stays bounded;
// their results remain reachable through the cache via re-submission.
func TestServerEvictsOldFinishedJobs(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, MaxFinishedJobs: 1})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec1 := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}
	spec2 := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"applu"}, Iterations: 10}
	first, err := c.Submit(ctx, spec1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, second.ID); err != nil {
		t.Fatal(err)
	}

	// The second completion evicts the first job's metadata. Wait ends with
	// a job lookup, which takes the server lock that the second job's end
	// holds through the eviction.
	var apiErr *simclient.APIError
	if _, err := c.Job(ctx, first.ID); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("evicted job %s still queryable: %v", first.ID, err)
	}
	if _, err := c.Job(ctx, second.ID); err != nil {
		t.Fatalf("most recent finished job evicted: %v", err)
	}
	jobs, err := c.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != second.ID {
		t.Fatalf("job list after eviction = %+v", jobs)
	}
	// The evicted job's results still live in the result cache.
	re, err := c.Submit(ctx, spec1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Wait(ctx, re.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.ExecutedPairs != 0 || info.CachedPairs == 0 {
		t.Fatalf("re-submission after eviction = %+v, want fully cache-served", info)
	}
}
