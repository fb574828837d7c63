package simserver

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simwire"
	"repro/internal/simworker"
)

// newCoordinator builds a started server with fleet-friendly timing, an
// httptest front end, and a typed client, returning the base URL for
// worker agents.
func newCoordinator(t *testing.T, cfg Config) (*Server, *simclient.Client, string) {
	t.Helper()
	if cfg.CodeRev == "" {
		cfg.CodeRev = "test-rev"
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	srv, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("fresh cache reported %d corrupt lines", corrupt)
	}
	hs := httptest.NewServer(srv.Handler())
	srv.Start()
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, simclient.New(hs.URL, nil), hs.URL
}

// startAgent runs a worker agent until the test ends.
func startAgent(t *testing.T, url, name string, cfg simworker.Config) {
	t.Helper()
	cfg.Server = url
	cfg.Name = name
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 2
	}
	agent, err := simworker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// waitFleet blocks until the coordinator reports n live remote workers.
func waitFleet(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().RemoteWorkers != n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers (have %d)", n, srv.Metrics().RemoteWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func runJobToDone(t *testing.T, c *simclient.Client, spec simapi.JobSpec) simapi.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	info, err = c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func fetchReport(t *testing.T, c *simclient.Client, id, format string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b, err := c.Report(ctx, id, format)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedJobMatchesLocal is the acceptance test of the
// coordinator/worker split: the same job run on a worker-less server and on
// a coordinator with two remote workers must produce byte-identical reports
// — including the executed/cached accounting in the metadata — with every
// pair delivered remotely.
func TestDistributedJobMatchesLocal(t *testing.T) {
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip", "applu"}, Iterations: 12}

	_, localC, _ := newCoordinator(t, Config{Parallelism: 2})
	localInfo := runJobToDone(t, localC, spec)
	if localInfo.State != simapi.StateDone || localInfo.ExecutedPairs == 0 {
		t.Fatalf("local job = %+v", localInfo)
	}

	srv, c, url := newCoordinator(t, Config{
		Parallelism:  2,
		LeaseTTL:     time.Second,
		PollInterval: 10 * time.Millisecond,
	})
	startAgent(t, url, "agent-a", simworker.Config{})
	startAgent(t, url, "agent-b", simworker.Config{})
	waitFleet(t, srv, 2)

	info := runJobToDone(t, c, spec)
	if info.State != simapi.StateDone {
		t.Fatalf("distributed job = %+v", info)
	}
	if info.ExecutedPairs != localInfo.ExecutedPairs || info.CachedPairs != localInfo.CachedPairs {
		t.Errorf("distributed pair accounting %d/%d, local %d/%d",
			info.ExecutedPairs, info.CachedPairs, localInfo.ExecutedPairs, localInfo.CachedPairs)
	}
	for _, format := range []string{"json", "csv", "text"} {
		local := fetchReport(t, localC, localInfo.ID, format)
		dist := fetchReport(t, c, info.ID, format)
		if string(local) != string(dist) {
			t.Errorf("%s report differs between local and distributed runs:\n--- local ---\n%s\n--- distributed ---\n%s",
				format, local, dist)
		}
	}

	m := srv.Metrics()
	if m.RemotePairs != uint64(info.ExecutedPairs) {
		t.Errorf("remote pairs = %d, want every executed pair (%d)", m.RemotePairs, info.ExecutedPairs)
	}
	if m.TasksCompleted == 0 || m.TasksQueued != 0 || m.TasksLeased != 0 {
		t.Errorf("task accounting after completion: %+v", m)
	}
	if m.InstsSimulated == 0 {
		t.Error("/metricsz throughput counter not fed by remote pairs")
	}

	// The distributed run must leave a span trail in the event log (shard
	// tasks and the merged distribution phase) and feed the pair latency
	// histogram from the workers' reported wall times.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, timings, err := c.WaitTimings(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	spanNames := make(map[string]bool)
	for _, sp := range timings.Spans {
		spanNames[sp.Name] = true
	}
	if !spanNames["shard[0]"] || !spanNames["merged"] {
		t.Errorf("distributed span trail incomplete: %+v", timings.Spans)
	}
	if n := srv.prom.pairLatency.Count(); n != uint64(info.ExecutedPairs) {
		t.Errorf("pair latency observations = %d, want one per executed pair (%d)", n, info.ExecutedPairs)
	}
}

// TestLeaseExpiryRequeues: a worker that claims a task and goes silent
// loses it — the reaper re-queues the task, excludes the silent worker, and
// a healthy worker finishes the job.
func TestLeaseExpiryRequeues(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		Parallelism:  2,
		LeaseTTL:     150 * time.Millisecond,
		WorkerTTL:    20 * time.Second,
		PollInterval: 10 * time.Millisecond,
	})

	// The bad worker speaks the raw protocol: register, lease, go silent.
	raw := simclient.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	reg, err := raw.RegisterWorker(ctx, simwire.RegisterRequest{Name: "silent"})
	if err != nil {
		t.Fatal(err)
	}

	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	var task *simwire.Task
	deadline := time.Now().Add(10 * time.Second)
	for task == nil {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never got a task")
		}
		lease, err := raw.LeaseTask(ctx, reg.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		task = lease.Task
		if task == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Let the lease expire, then bring up a healthy worker to rescue the job.
	startAgent(t, url, "rescue", simworker.Config{})
	info, err = c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("job = %+v, want done after requeue", info)
	}
	m := srv.Metrics()
	if m.TasksRequeued == 0 {
		t.Error("lease expiry did not requeue the task")
	}

	// The silent worker's stale lease is gone: progress on it reports the
	// task canceled rather than merging anything.
	resp, err := raw.TaskProgress(ctx, task.ID, reg.WorkerID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Error("stale lease holder not told to abandon the task")
	}
}

// TestDistributedJobCancelPropagates: canceling a distributed job withdraws
// its tasks and tells workers to abandon them on the next heartbeat.
func TestDistributedJobCancelPropagates(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		Parallelism:  1,
		LeaseTTL:     time.Second,
		PollInterval: 10 * time.Millisecond,
	})
	// A slow worker: the pair delay keeps the task running long enough for
	// the cancel to land mid-task.
	startAgent(t, url, "slow", simworker.Config{Parallelism: 1, PairDelay: 50 * time.Millisecond})
	waitFleet(t, srv, 1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip", "applu"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the task is leased so the cancel exercises the remote path.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().TasksLeased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never leased")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := srv.Cancel(info.ID); !ok {
		t.Fatal("cancel: job vanished")
	}
	info, err = c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateCanceled {
		t.Fatalf("job = %+v, want canceled", info)
	}
	// The withdrawn task must drain from the dispatcher.
	deadline = time.Now().Add(10 * time.Second)
	for {
		m := srv.Metrics()
		if m.TasksQueued == 0 && m.TasksLeased == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tasks not withdrawn after cancel: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetLostFallsBackLocal: when the whole fleet dies after a job was
// committed to distributed execution, the job must not fail — the reaper
// withdraws the stranded run and the server re-runs it in-process.
func TestFleetLostFallsBackLocal(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		Parallelism:  2,
		LeaseTTL:     100 * time.Millisecond,
		WorkerTTL:    300 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	// A worker that registers and is never heard from again: the job is
	// dispatched distributed, its task is never leased, and the fleet
	// empties when the worker is pruned.
	raw := simclient.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := raw.RegisterWorker(ctx, simwire.RegisterRequest{Name: "ghost"}); err != nil {
		t.Fatal(err)
	}

	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info := runJobToDone(t, c, spec)
	if info.State != simapi.StateDone || info.ExecutedPairs == 0 {
		t.Fatalf("job = %+v, want done via local fallback", info)
	}
	m := srv.Metrics()
	if m.RemotePairs != 0 {
		t.Errorf("remote pairs = %d after a fleet that never executed anything", m.RemotePairs)
	}
	if m.RemoteWorkers != 0 {
		t.Errorf("ghost worker still registered: %+v", m)
	}
	if m.CacheHits != 0 {
		t.Errorf("cache hits = %d; the fallback re-plan must not count executed pairs as hits", m.CacheHits)
	}
	// The fallback must not announce a second plan in the event log.
	planned := 0
	err := c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error {
		if ev.Type == simapi.EventPlanned {
			planned++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if planned != 1 {
		t.Errorf("event log has %d planned events after fallback, want 1", planned)
	}
}

// TestStaleWorkerFailureDoesNotFailJob: a failure reported by a worker
// whose lease already expired must be ignored — the task is owned by (or
// destined for) someone else, and the stale worker's error would otherwise
// discard the healthy re-run.
func TestStaleWorkerFailureDoesNotFailJob(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		Parallelism:  2,
		LeaseTTL:     100 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	raw := simclient.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	reg, err := raw.RegisterWorker(ctx, simwire.RegisterRequest{Name: "staller"})
	if err != nil {
		t.Fatal(err)
	}
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var task *simwire.Task
	deadline := time.Now().Add(10 * time.Second)
	for task == nil {
		if time.Now().After(deadline) {
			t.Fatal("staller never got a task")
		}
		lease, err := raw.LeaseTask(ctx, reg.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if task = lease.Task; task == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	for srv.Metrics().TasksQueued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-queued")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := raw.CompleteTask(ctx, task.ID, reg.WorkerID, nil, "simulated stall-induced failure", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Error("stale failure report not told the task is lost")
	}
	startAgent(t, url, "rescue", simworker.Config{})
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("job = %+v, want done despite the stale failure report", info)
	}
}

// TestLateIncompleteCompleteDoesNotDuplicateTask: a completion that is both
// missing pairs and from a worker whose lease already expired must not
// re-queue the task a second time — the requeue from lease expiry already
// did.
func TestLateIncompleteCompleteDoesNotDuplicateTask(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		Parallelism:  2,
		LeaseTTL:     100 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	raw := simclient.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	reg, err := raw.RegisterWorker(ctx, simwire.RegisterRequest{Name: "laggard"})
	if err != nil {
		t.Fatal(err)
	}
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var task *simwire.Task
	deadline := time.Now().Add(10 * time.Second)
	for task == nil {
		if time.Now().After(deadline) {
			t.Fatal("laggard never got a task")
		}
		lease, err := raw.LeaseTask(ctx, reg.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if task = lease.Task; task == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Sit out the lease; the reaper re-queues the task.
	deadline = time.Now().Add(10 * time.Second)
	for srv.Metrics().TasksQueued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-queued")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The late, incomplete completion: entries missing, lease long gone.
	resp, err := raw.CompleteTask(ctx, task.ID, reg.WorkerID, nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Error("late completion not told the task is lost")
	}
	if q := srv.Metrics().TasksQueued; q != 1 {
		t.Fatalf("task queued %d times after late incomplete completion, want 1", q)
	}
	// A healthy worker finishes the job.
	startAgent(t, url, "rescue", simworker.Config{})
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("job = %+v, want done", info)
	}
}

// TestNoRemoteWorkersRunsLocally pins the compatibility guarantee: with no
// fleet registered, the server behaves exactly as before — jobs execute
// in-process and the fleet counters stay at zero.
func TestNoRemoteWorkersRunsLocally(t *testing.T) {
	srv, c, _ := newCoordinator(t, Config{Parallelism: 2})
	spec := simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"},
		Iterations: 12, Configs: []string{"nosq-delay"}}
	info := runJobToDone(t, c, spec)
	if info.State != simapi.StateDone || info.ExecutedPairs == 0 {
		t.Fatalf("job = %+v", info)
	}
	m := srv.Metrics()
	if m.RemotePairs != 0 || m.TasksCompleted != 0 || m.TasksRequeued != 0 {
		t.Errorf("fleet counters moved without a fleet: %+v", m)
	}
}

// TestCompleteAfterStreamedFinishObservesPairLatency: when heartbeats
// streamed every pair, the final progress post already finished and deleted
// the task — yet the worker's complete is the only message carrying the
// task's wall time, so it must still feed the pair latency histogram.
// (Regression: the observation used to sit after the task lookup, so fully
// streamed tasks never reported a latency sample.)
func TestCompleteAfterStreamedFinishObservesPairLatency(t *testing.T) {
	srv, c, _ := newCoordinator(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reg, err := c.RegisterWorker(ctx, simwire.RegisterRequest{Name: "streamer"})
	if err != nil {
		t.Fatal(err)
	}
	entries := []experiments.CheckpointEntry{
		{Benchmark: "gzip", Config: "nosq-delay@w0128"},
		{Benchmark: "applu", Config: "nosq-delay@w0128"},
	}
	resp, err := c.CompleteTask(ctx, "task-gone", reg.WorkerID, entries, "", 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Error("complete for a finished task not told the task is gone")
	}
	if got := srv.prom.pairLatency.Count(); got != uint64(len(entries)) {
		t.Errorf("pair latency observations = %d, want %d", got, len(entries))
	}
	// 80ms over 2 pairs = 40ms each; both land below the 100ms bucket bound.
	if sum := srv.prom.pairLatency.Sum(); sum < 0.079 || sum > 0.081 {
		t.Errorf("pair latency sum = %v s, want ~0.080", sum)
	}
}

// TestUnknownWorkerRejected: requests with an unknown worker id get 404 so
// agents know to re-register after a coordinator restart.
func TestUnknownWorkerRejected(t *testing.T) {
	_, c, _ := newCoordinator(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.LeaseTask(ctx, "worker-bogus")
	var apiErr *simclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("lease with bogus worker id: %v, want 404", err)
	}
	if _, err := c.TaskProgress(ctx, "task-000001", "worker-bogus", nil); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("progress with bogus worker id: %v, want 404", err)
	}
}
