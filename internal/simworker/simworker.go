// Package simworker implements the remote worker agent behind command
// nosq-worker: a pull-based loop that registers with a coordinator
// (internal/simserver, command nosq-server), leases shard tasks — contiguous
// slices of a job's deterministic pair order — executes them through the
// experiment subsystem with the engine's usual trace sharing, and streams
// finished pairs back as progress posts that double as lease heartbeats.
//
// The agent holds no durable state: killing it at any moment loses at most
// the pairs it had not yet streamed, which the coordinator re-leases to
// another worker once the lease expires. A worker that discovers its lease
// is gone (coordinator says Canceled) abandons the task mid-run.
package simworker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/simclient"
	"repro/internal/simwire"
)

// Config configures an Agent.
type Config struct {
	// Server is the coordinator's base URL (e.g. "http://10.0.0.5:8080").
	Server string
	// Name labels this worker in coordinator logs (e.g. the hostname).
	Name string
	// Parallelism is the number of concurrent simulations within a task
	// (0 = GOMAXPROCS).
	Parallelism int
	// PollInterval is the idle lease-polling interval. The coordinator's
	// registration response may lower (never raise) the effective interval.
	// Must be positive.
	PollInterval time.Duration
	// PairDelay throttles the task loop by sleeping after each finished
	// pair (0 = none). Useful to keep a shared machine responsive — and to
	// make lease-expiry scenarios deterministic in tests.
	PairDelay time.Duration
	// Logf, if set, receives one line per lifecycle edge ("" = silent).
	Logf func(format string, args ...interface{})
}

func (c Config) validate() error {
	if c.Server == "" {
		return errors.New("simworker: coordinator URL is required")
	}
	if c.PollInterval <= 0 {
		return fmt.Errorf("simworker: poll interval must be positive, got %v", c.PollInterval)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("simworker: negative parallelism %d", c.Parallelism)
	}
	if c.PairDelay < 0 {
		return fmt.Errorf("simworker: negative pair delay %v", c.PairDelay)
	}
	return nil
}

// Agent is one remote worker process. Create with New and drive with Run.
type Agent struct {
	cfg    Config
	client *simclient.Client

	workerID string
	leaseTTL time.Duration
	poll     time.Duration
}

// New validates cfg and builds an agent (no network traffic yet).
func New(cfg Config) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Agent{cfg: cfg, client: simclient.New(cfg.Server, nil), poll: cfg.PollInterval}, nil
}

func (a *Agent) logf(format string, args ...interface{}) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Run is the agent's main loop: register, then lease/execute/complete until
// ctx is canceled. Connection errors back off and retry; an unknown-worker
// response re-registers (coordinator restart). Run returns ctx.Err() on
// shutdown — an in-flight task is abandoned and its lease left to expire,
// after a best-effort progress post salvaging the pairs finished so far.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.register(ctx); err != nil {
		return err
	}
	backoff := a.poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := a.client.LeaseTask(ctx, a.workerID)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case isUnknownWorker(err):
			a.logf("coordinator no longer knows %s; re-registering", a.workerID)
			if err := a.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			a.logf("lease: %v; retrying in %v", err, backoff)
			if !sleep(ctx, backoff) {
				return ctx.Err()
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = a.poll
		if lease.Task == nil {
			if !sleep(ctx, a.pollHint(lease.PollMillis)) {
				return ctx.Err()
			}
			continue
		}
		a.runTask(ctx, lease.Task)
	}
}

// register enrolls with the coordinator, retrying with backoff until it
// succeeds or ctx ends.
func (a *Agent) register(ctx context.Context) error {
	backoff := a.poll
	for {
		resp, err := a.client.RegisterWorker(ctx, simwire.RegisterRequest{
			Name: a.cfg.Name, Capacity: a.cfg.Parallelism,
		})
		if err == nil {
			a.workerID = resp.WorkerID
			a.leaseTTL = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			a.poll = a.pollHint(resp.PollMillis)
			a.logf("registered as %s (lease TTL %v, poll %v)", a.workerID, a.leaseTTL, a.poll)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.logf("register: %v; retrying in %v", err, backoff)
		if !sleep(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// pollHint caps the configured poll interval by the coordinator's hint.
func (a *Agent) pollHint(millis int) time.Duration {
	d := a.cfg.PollInterval
	if hint := time.Duration(millis) * time.Millisecond; hint > 0 && hint < d {
		d = hint
	}
	return d
}

// taskSink collects executed pairs for streaming: the heartbeat drains
// fresh entries into progress posts, and the final complete re-delivers
// everything (the coordinator deduplicates).
type taskSink struct {
	delay time.Duration

	mu    sync.Mutex
	fresh []experiments.CheckpointEntry
	all   []experiments.CheckpointEntry
}

func (s *taskSink) Planned(total, resumed, skippedShard, pending int) {}

func (s *taskSink) PairDone(e experiments.CheckpointEntry) {
	s.mu.Lock()
	s.fresh = append(s.fresh, e)
	s.all = append(s.all, e)
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}

func (s *taskSink) drain() []experiments.CheckpointEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.fresh
	s.fresh = nil
	return out
}

func (s *taskSink) everything() []experiments.CheckpointEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]experiments.CheckpointEntry(nil), s.all...)
}

// seedStore serves a leased task's already-resolved entries to the sweep
// engine, which resumes them instead of re-simulating. Appends are dropped —
// delivery happens through the progress stream.
type seedStore struct{ entries []experiments.CheckpointEntry }

func (s seedStore) Lookup(keys []string) (map[string]experiments.CheckpointEntry, int, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	found := make(map[string]experiments.CheckpointEntry, len(s.entries))
	for _, e := range s.entries {
		if k := e.Key(); want[k] {
			found[k] = e
		}
	}
	return found, 0, nil
}

func (s seedStore) Append(experiments.CheckpointEntry) error { return nil }

// runTask executes one leased shard task: the job's experiment restricted
// to the [Start, End) pair slice, seeded with the coordinator's Done
// entries, with a heartbeat goroutine streaming finished pairs and
// renewing the lease.
func (a *Agent) runTask(ctx context.Context, task *simwire.Task) {
	a.logf("task %s: %s pairs [%d,%d), attempt %d", task.ID, task.Spec.Experiment,
		task.Start, task.End, task.Attempt)
	taskStart := time.Now()
	exp, err := experiments.Lookup(task.Spec.Experiment)
	if err != nil {
		// Version skew: this binary does not know the experiment. Completing
		// with the error (failing the job) beats a requeue loop across an
		// equally stale fleet.
		a.complete(task, nil, err.Error(), 0)
		return
	}

	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sink := &taskSink{delay: a.cfg.PairDelay}
	hbDone := make(chan struct{})
	go a.heartbeat(tctx, cancel, task, sink, hbDone)

	opts := task.Spec.Options()
	opts.Parallelism = a.cfg.Parallelism
	opts.Slice = &experiments.PairSlice{Start: task.Start, End: task.End}
	opts.Store = seedStore{entries: task.Done}
	opts.Progress = sink
	_, runErr := exp.Run(tctx, opts)

	cancel()
	<-hbDone
	switch {
	case ctx.Err() != nil:
		// Worker shutdown: salvage finished pairs; the lease expires and the
		// remainder re-runs elsewhere. Not a complete — a shutdown must not
		// fail the job.
		a.salvage(task, sink)
	case tctx.Err() != nil && runErr != nil && errors.Is(runErr, context.Canceled):
		// Coordinator told the heartbeat the task is canceled (job canceled
		// or lease lost): nothing further to report.
		a.logf("task %s abandoned (canceled by coordinator)", task.ID)
	case runErr != nil:
		a.complete(task, sink.everything(), runErr.Error(), time.Since(taskStart))
	default:
		a.complete(task, sink.everything(), "", time.Since(taskStart))
	}
}

// heartbeat streams progress every third of the lease TTL until the task
// context ends, canceling the task when the coordinator says so.
func (a *Agent) heartbeat(tctx context.Context, cancel context.CancelFunc, task *simwire.Task, sink *taskSink, done chan<- struct{}) {
	defer close(done)
	interval := a.leaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-tctx.Done():
			return
		case <-t.C:
			resp, err := a.client.TaskProgress(tctx, task.ID, a.workerID, sink.drain())
			if isUnknownWorker(err) {
				// Coordinator restart or liveness prune: nothing this worker
				// delivers under its old identity can land, so finishing the
				// task would waste the whole slice. Abandon now; the main
				// loop re-registers on its next lease call.
				a.logf("task %s: coordinator no longer knows %s; abandoning", task.ID, a.workerID)
				cancel()
				return
			}
			if err != nil {
				// Transient: the next tick retries; undelivered entries are
				// re-sent by the final complete anyway.
				continue
			}
			if resp.Canceled {
				a.logf("task %s: coordinator canceled the lease", task.ID)
				cancel()
				return
			}
		}
	}
}

// complete reports a finished task, retrying briefly so one dropped
// connection does not turn a finished slice into a lease-expiry re-run.
// wall is the worker-measured wall-clock time of the whole task, shipped to
// the coordinator's pair latency accounting (0 = unmeasured).
func (a *Agent) complete(task *simwire.Task, entries []experiments.CheckpointEntry, errMsg string, wall time.Duration) {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := a.client.CompleteTask(ctx, task.ID, a.workerID, entries, errMsg, wall)
		cancel()
		if err == nil {
			a.logf("task %s complete (%d pairs, err=%q)", task.ID, len(entries), errMsg)
			return
		}
		a.logf("task %s: completion attempt %d failed: %v", task.ID, attempt+1, err)
		time.Sleep(500 * time.Millisecond)
	}
}

// salvage posts the pairs finished before a shutdown, best-effort.
func (a *Agent) salvage(task *simwire.Task, sink *taskSink) {
	entries := sink.everything()
	if len(entries) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := a.client.TaskProgress(ctx, task.ID, a.workerID, entries); err == nil {
		a.logf("task %s: salvaged %d finished pairs before shutdown", task.ID, len(entries))
	}
}

func isUnknownWorker(err error) bool {
	var apiErr *simclient.APIError
	return errors.As(err, &apiErr) && apiErr.Status == 404
}

// sleep waits d or until ctx ends, reporting whether it slept the full d.
func sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
