package simserver

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsonl"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simstore"
)

// threeGroups is a fig2 job of three benchmarks. At Parallelism 1 they run
// as three batch groups, one after another.
var threeGroups = simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip", "applu", "mgrid"}, Iterations: 10}

// holdSecondPair reopens a durable server's result-cache file with a hook
// that holds the second pair's append: holding closes when the append
// begins, and the append completes once release is closed. A job held there
// is running, with its first pair persisted.
func holdSecondPair(t *testing.T, srv *Server, dir string) (holding, release chan struct{}) {
	t.Helper()
	if err := srv.cache.log.Close(); err != nil {
		t.Fatal(err)
	}
	holding, release = make(chan struct{}), make(chan struct{})
	var writes atomic.Int32
	hooks := jsonl.Hooks{Write: func(f *os.File, b []byte) (int, error) {
		if writes.Add(1) == 2 {
			close(holding)
			<-release
		}
		return f.Write(b)
	}}
	var err error
	if srv.cache.log, err = jsonl.Open(filepath.Join(dir, "results.jsonl"), hooks); err != nil {
		t.Fatal(err)
	}
	return holding, release
}

// shutdownReleasing shuts a server down while a hook holds one of its
// appends: it releases the append once Shutdown has canceled the server's
// context, so the run sees the stop before its next group.
func shutdownReleasing(t *testing.T, srv *Server, holding, release chan struct{}) {
	t.Helper()
	select {
	case <-holding:
	case <-time.After(time.Minute):
		t.Fatal("the held append never began")
	}
	stopped := make(chan error, 1)
	go func() { stopped <- srv.Shutdown(context.Background()) }()
	<-srv.baseCtx.Done()
	close(release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
}

// TestJobEndsOnlyOnceDurable: no client sees a job ended before its
// terminal record is durable. With the completed record's fsync held, the
// job still reads running through Job and through its /events feed.
func TestJobEndsOnlyOnceDurable(t *testing.T) {
	dir := t.TempDir()
	srv, _, err := New(Config{Workers: 1, CodeRev: "test-rev", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Reopen the WAL with hooks that hold the first fsync after a completed
	// record is written until the test releases it.
	if err := srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	var wroteTerminal atomic.Bool
	var hold sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	hooks := jsonl.Hooks{
		Write: func(f *os.File, b []byte) (int, error) {
			if bytes.Contains(b, []byte(`"type":"completed"`)) {
				wroteTerminal.Store(true)
			}
			return f.Write(b)
		},
		Sync: func(f *os.File) error {
			if wroteTerminal.Load() {
				hold.Do(func() { close(held); <-release })
			}
			return f.Sync()
		},
	}
	if srv.wal, _, _, err = simstore.Open(filepath.Join(dir, "wal.jsonl"), hooks, nil); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer shutdown(t, srv)
	cl := simclient.New(hs.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	info, err := srv.Submit(simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered past the job's dozen events, so the follower never blocks.
	feed := make(chan simapi.Event, 64)
	go cl.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error { feed <- ev; return nil })
	srv.Start()
	select {
	case <-held:
	case <-ctx.Done():
		t.Fatal("the completed record was never synced")
	}

	// Job either waits for the server lock, which the job's end holds
	// through the append, or reads the job running.
	got := make(chan simapi.JobInfo, 1)
	go func() {
		info, _ := srv.Job(info.ID)
		got <- info
	}()
	select {
	case info := <-got:
		if info.State != simapi.StateRunning {
			t.Errorf("Job read %q while the completed record's fsync was held, want running", info.State)
		}
	case <-time.After(200 * time.Millisecond):
	}
	state := ""
	for drained := false; !drained; {
		select {
		case ev := <-feed:
			if ev.Type == simapi.EventState {
				state = ev.State
			}
		default:
			drained = true
		}
	}
	if state != simapi.StateRunning {
		t.Errorf("the feed's last state was %q while the completed record's fsync was held, want running", state)
	}

	close(release)
	if final, err := cl.Wait(ctx, info.ID); err != nil || final.State != simapi.StateDone {
		t.Fatalf("job = %+v, %v; want done once the fsync returns", final, err)
	}
}

// TestShutdownMidRunRequeues: Shutdown leaves the disk as a kill does. A
// durable server stopped with one job mid-run and one queued restores
// neither as ended: both re-queue, and the interrupted job's re-run serves
// every pair persisted before the stop from the result cache, so no pair runs
// twice.
func TestShutdownMidRunRequeues(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Parallelism: 1, CodeRev: "test-rev", StateDir: dir}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	holding, release := holdSecondPair(t, srv, dir)
	running, err := srv.Submit(threeGroups, "")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(simapi.JobSpec{Experiment: "table5", Benchmarks: []string{"gzip"}, Iterations: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	shutdownReleasing(t, srv, holding, release)
	// A cancel after the stop ends no job either: the stop came first.
	if got, _ := srv.Cancel(queued.ID); got.State != simapi.StateQueued {
		t.Fatalf("cancel after Shutdown = %+v, want the job still queued", got)
	}

	srv2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv2)
	if restored, requeued := srv2.RecoveryStats(); restored != 0 || requeued != 2 {
		t.Fatalf("recovery after Shutdown = %d restored / %d re-queued, want 0/2", restored, requeued)
	}
	persisted := srv2.Cache().Len()
	srv2.Start()
	hs := httptest.NewServer(srv2.Handler())
	defer hs.Close()
	cl := simclient.New(hs.URL, nil)
	final, err := cl.Wait(ctx, running.ID)
	if err != nil || final.State != simapi.StateDone {
		t.Fatalf("re-queued running job = %+v, %v; want done", final, err)
	}
	if persisted == 0 || persisted >= final.TotalPairs {
		t.Fatalf("%d of %d pairs persisted before the stop; the stop did not land mid-run", persisted, final.TotalPairs)
	}
	if final.CachedPairs != persisted || final.ExecutedPairs != final.TotalPairs-persisted {
		t.Errorf("re-run cached %d and executed %d of %d pairs, want the %d persisted cached and the rest executed",
			final.CachedPairs, final.ExecutedPairs, final.TotalPairs, persisted)
	}
	if info, err := cl.Wait(ctx, queued.ID); err != nil || info.State != simapi.StateDone {
		t.Fatalf("re-queued queued job = %+v, %v; want done", info, err)
	}
}

// TestCancelBeforeShutdownEndsCanceled: the first cancel decides. A client's
// cancel of a running job that comes just before Shutdown ends the job
// canceled, and a restart restores it canceled.
func TestCancelBeforeShutdownEndsCanceled(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Parallelism: 1, CodeRev: "test-rev", StateDir: dir}
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	holding, release := holdSecondPair(t, srv, dir)
	info, err := srv.Submit(threeGroups, "")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	<-holding
	if _, ok := srv.Cancel(info.ID); !ok {
		t.Fatal("cancel: job vanished")
	}
	shutdownReleasing(t, srv, holding, release)

	srv2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv2)
	if restored, requeued := srv2.RecoveryStats(); restored != 1 || requeued != 0 {
		t.Fatalf("recovery = %d restored / %d re-queued, want 1/0", restored, requeued)
	}
	if got, _ := srv2.Job(info.ID); got.State != simapi.StateCanceled {
		t.Fatalf("restored job = %+v, want canceled", got)
	}
}

// TestEventsEndAtShutdown: an /events follower of a queued job returns once
// Shutdown runs, since no terminal event will come, and the job stays
// queued.
func TestEventsEndAtShutdown(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	following := make(chan struct{})
	ended := make(chan error, 1)
	go func() {
		ended <- c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error {
			if ev.State == simapi.StateQueued {
				close(following)
			}
			return nil
		})
	}()
	<-following
	shutdown(t, srv)
	select {
	case err := <-ended:
		if err != nil {
			t.Fatalf("follower ended with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the follower still streams after Shutdown")
	}
	if got, _ := srv.Job(info.ID); got.State != simapi.StateQueued {
		t.Fatalf("job after Shutdown = %+v, want still queued", got)
	}
}

// TestRestoredEventLogMatchesLive: replay ends a job with the code that
// ended it live, so a restored job's event log is the live one without the
// events the WAL never held: planned, pair, shard[i] and merged.
func TestRestoredEventLogMatchesLive(t *testing.T) {
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	info, err := srv.Submit(simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	_, err = simclient.New(hs.URL, nil).Wait(ctx, info.ID)
	hs.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	live, _, _ := srv.jobs[info.ID].eventsSince(0)
	srv.mu.Unlock()
	shutdown(t, srv)

	// Sequence numbers follow the log's length, and a decoded time has its
	// own location; the rest must match.
	normal := func(ev simapi.Event) simapi.Event {
		ev.Seq, ev.Time = 0, ev.Time.UTC()
		if ev.Span != nil {
			span := *ev.Span
			span.Start = span.Start.UTC()
			ev.Span = &span
		}
		return ev
	}
	var want []simapi.Event
	for _, ev := range live {
		switch {
		case ev.Type == simapi.EventPlanned, ev.Type == simapi.EventPair,
			ev.Span != nil && (ev.Span.Name == "merged" || strings.HasPrefix(ev.Span.Name, "shard[")):
			continue
		}
		want = append(want, normal(ev))
	}
	srv2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv2)
	restored, _, _ := srv2.jobs[info.ID].eventsSince(0)
	var got []simapi.Event
	for _, ev := range restored {
		got = append(got, normal(ev))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored event log differs from the live one:\n got: %+v\nwant: %+v", got, want)
	}
}
