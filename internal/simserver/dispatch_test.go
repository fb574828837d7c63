package simserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simwire"
	"repro/internal/simworker"
)

// newCoordinator builds a started server with fleet-friendly timing, an
// httptest front end, and a typed client, returning the base URL for
// worker agents. The server keeps the test binary's own code revision, which
// in-process agents register with.
func newCoordinator(t *testing.T, cfg Config) (*Server, *simclient.Client, string) {
	t.Helper()
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

// registerRaw enrolls a worker that speaks the raw protocol, with this
// binary's code revision.
func registerRaw(t *testing.T, c *simclient.Client, name string) simwire.RegisterResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reg, err := c.RegisterWorker(ctx, simwire.RegisterRequest{Name: name, CodeRev: obs.CodeRevision()})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// leaseOne polls until the worker is granted a task.
func leaseOne(t *testing.T, c *simclient.Client, workerID string) *simwire.Task {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		lease, err := c.LeaseTask(ctx, workerID)
		if err != nil {
			t.Fatalf("no task leased to %s: %v", workerID, err)
		}
		if lease.Task != nil {
			return lease.Task
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitQueued blocks until the coordinator has n queued shard tasks.
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().TasksQueued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued tasks never reached %d (have %d)", n, srv.Metrics().TasksQueued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pairSink is an experiments.ProgressSink that keeps executed entries.
type pairSink struct {
	mu      sync.Mutex
	entries []experiments.CheckpointEntry
}

func (s *pairSink) Planned(total, resumed, skippedShard, pending int) {}
func (s *pairSink) PairDone(e experiments.CheckpointEntry, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
}

// simulateTask executes a leased task's pairs in-process, one position at a
// time, and returns each position's delivery, stamped with wall.
func simulateTask(t *testing.T, task *simwire.Task, wall time.Duration) map[int]simwire.Pair {
	t.Helper()
	exp, err := experiments.Lookup(task.Spec.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]simwire.Pair, len(task.Pairs))
	for _, p := range task.Pairs {
		sink := &pairSink{}
		opts := task.Spec.Options()
		opts.Pairs = []int{p}
		opts.Progress = sink
		if _, err := exp.Run(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		if len(sink.entries) != 1 {
			t.Fatalf("position %d ran %d pairs, want 1", p, len(sink.entries))
		}
		out[p] = simwire.NewPair(sink.entries[0], wall)
	}
	return out
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
	reg := registerRaw(t, raw, "silent")

	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	task := leaseOne(t, raw, reg.WorkerID)

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
	resp, err := raw.TaskProgress(ctx, task.ID, reg.WorkerID, nil, "")
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
	registerRaw(t, raw, "ghost")

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
	reg := registerRaw(t, raw, "staller")
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	task := leaseOne(t, raw, reg.WorkerID)
	waitQueued(t, srv, 1) // the lease expired and was re-queued
	resp, err := raw.TaskProgress(ctx, task.ID, reg.WorkerID, nil, "simulated stall-induced failure")
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

// TestLateEmptyPostDoesNotDuplicateTask: a post that carries no pairs, from
// a worker whose lease already expired, must not queue the task a second
// time — the requeue from lease expiry already did.
func TestLateEmptyPostDoesNotDuplicateTask(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		Parallelism:  2,
		LeaseTTL:     100 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	})
	raw := simclient.New(url, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	reg := registerRaw(t, raw, "laggard")
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12}
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	task := leaseOne(t, raw, reg.WorkerID)
	waitQueued(t, srv, 1) // sit out the lease; the reaper re-queues the task
	// The late, empty post: no pairs, lease long gone.
	resp, err := raw.TaskProgress(ctx, task.ID, reg.WorkerID, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Error("late post not told the task is lost")
	}
	if q := srv.Metrics().TasksQueued; q != 1 {
		t.Fatalf("task queued %d times after a late empty post, want 1", q)
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

// TestRemotePairLatencyOncePerDeliveredPair: a distributed job's pair
// latency histogram gains exactly one observation per executed pair, with
// the wall time its worker posted; a pair posted twice is observed once.
func TestRemotePairLatencyOncePerDeliveredPair(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{LeaseTTL: 10 * time.Second, PollInterval: 10 * time.Millisecond})
	raw := simclient.New(url, nil)
	reg := registerRaw(t, raw, "poster")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	task := leaseOne(t, raw, reg.WorkerID)
	const wall = 40 * time.Millisecond
	byPos := simulateTask(t, task, wall)
	var first, rest []simwire.Pair
	for i, p := range task.Pairs {
		if i < len(task.Pairs)/2 {
			first = append(first, byPos[p])
		} else {
			rest = append(rest, byPos[p])
		}
	}
	again := append([]simwire.Pair(nil), first...)
	for i := range again {
		again[i].WallMillis = 5000 // a second copy, which must not be observed
	}
	for _, post := range [][]simwire.Pair{first, again, rest} {
		if _, err := raw.TaskProgress(ctx, task.ID, reg.WorkerID, post, ""); err != nil {
			t.Fatal(err)
		}
	}
	if info, err = c.Wait(ctx, info.ID); err != nil || info.State != simapi.StateDone {
		t.Fatalf("job = %+v, %v; want done", info, err)
	}
	if info.ExecutedPairs != len(task.Pairs) {
		t.Fatalf("executed pairs = %d, want the task's %d", info.ExecutedPairs, len(task.Pairs))
	}
	if n := srv.prom.pairLatency.Count(); n != uint64(info.ExecutedPairs) {
		t.Errorf("pair latency observations = %d, want one per executed pair (%d)", n, info.ExecutedPairs)
	}
	want := float64(info.ExecutedPairs) * wall.Seconds()
	if sum := srv.prom.pairLatency.Sum(); sum < want-1e-6 || sum > want+1e-6 {
		t.Errorf("pair latency sum = %v s, want the posted %v s", sum, want)
	}
}

// TestReleasedTaskNamesOnlyUndeliveredPairs: when a worker delivers part of
// a task and then goes silent, the task re-leased after its lease expires
// names exactly the pairs that worker did not deliver.
func TestReleasedTaskNamesOnlyUndeliveredPairs(t *testing.T) {
	srv, c, url := newCoordinator(t, Config{
		LeaseTTL:     150 * time.Millisecond,
		WorkerTTL:    20 * time.Second,
		PollInterval: 10 * time.Millisecond,
	})
	raw := simclient.New(url, nil)
	first := registerRaw(t, raw, "partial")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	task := leaseOne(t, raw, first.WorkerID)
	if len(task.Pairs) < 3 {
		t.Fatalf("task owes %v, want at least 3 pairs", task.Pairs)
	}
	byPos := simulateTask(t, task, time.Millisecond)
	// Deliver the first and the last pair, then go silent.
	delivered := []simwire.Pair{byPos[task.Pairs[0]], byPos[task.Pairs[len(task.Pairs)-1]]}
	if _, err := raw.TaskProgress(ctx, task.ID, first.WorkerID, delivered, ""); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, srv, 1)

	second := registerRaw(t, raw, "rescue")
	again := leaseOne(t, raw, second.WorkerID)
	if want := task.Pairs[1 : len(task.Pairs)-1]; again.ID != task.ID || !reflect.DeepEqual(again.Pairs, want) || again.Attempt != 2 {
		t.Fatalf("re-leased task %s names %v (attempt %d), want %s naming %v (attempt 2)",
			again.ID, again.Pairs, again.Attempt, task.ID, want)
	}
	var rest []simwire.Pair
	for _, p := range again.Pairs {
		rest = append(rest, byPos[p])
	}
	if _, err := raw.TaskProgress(ctx, again.ID, second.WorkerID, rest, ""); err != nil {
		t.Fatal(err)
	}
	if info, err = c.Wait(ctx, info.ID); err != nil || info.State != simapi.StateDone || info.ExecutedPairs != len(task.Pairs) {
		t.Fatalf("job = %+v, %v; want done with all %d pairs executed", info, err, len(task.Pairs))
	}
}

// TestRegisterRefusesOtherRevision: a worker of another code revision, or
// one that reports none, is refused with 409 naming both revisions and does
// not join the fleet.
func TestRegisterRefusesOtherRevision(t *testing.T) {
	srv, c, _ := newCoordinator(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, rev := range []string{"0123456789ab-other", ""} {
		_, err := c.RegisterWorker(ctx, simwire.RegisterRequest{Name: "stale", CodeRev: rev})
		var apiErr *simclient.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
			t.Fatalf("register with revision %q: %v, want 409", rev, err)
		}
		for _, name := range []string{`"` + rev + `"`, `"` + srv.rev + `"`} {
			if !strings.Contains(apiErr.Message, name) {
				t.Errorf("refusal %q does not name revision %s", apiErr.Message, name)
			}
		}
	}
	if n := srv.Metrics().RemoteWorkers; n != 0 {
		t.Errorf("fleet has %d workers after refusals, want 0", n)
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
	if _, err := c.TaskProgress(ctx, "task-000001", "worker-bogus", nil, ""); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("progress with bogus worker id: %v, want 404", err)
	}
}
