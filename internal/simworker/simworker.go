// Package simworker implements the remote worker agent behind command
// nosq-worker: a pull-based loop that registers with a coordinator
// (internal/simserver, command nosq-server), leases shard tasks — the
// positions of pending pairs in a job's deterministic pair order — executes
// them through the experiment subsystem with the engine's usual trace
// sharing, and posts each finished pair back once, with the wall time its
// engine measured, on progress posts that double as lease heartbeats.
//
// The agent holds no durable state: killing it at any moment loses at most
// the pairs the coordinator had not yet acknowledged, which it re-leases to
// another worker once the lease expires. A worker that discovers its lease
// is gone (coordinator says Canceled) abandons the task mid-run. A
// coordinator built from another commit refuses the worker at registration,
// and Run returns that refusal.
package simworker

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
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

// Run is the agent's main loop: register, then lease and execute tasks until
// ctx is canceled. Connection errors back off and retry; an unknown-worker
// response re-registers (coordinator restart). A coordinator that refuses
// this worker's code revision ends Run with that error. Run returns ctx.Err()
// on shutdown — an in-flight task is abandoned and its lease left to expire,
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
// succeeds, ctx ends, or the coordinator refuses this worker's revision.
func (a *Agent) register(ctx context.Context) error {
	backoff := a.poll
	for {
		resp, err := a.client.RegisterWorker(ctx, simwire.RegisterRequest{
			Name: a.cfg.Name, Capacity: a.cfg.Parallelism, CodeRev: obs.CodeRevision(),
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
		var apiErr *simclient.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
			return err // another revision: no retry can succeed
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

// taskSink holds a task's executed pairs until the coordinator acknowledges
// them. Each post takes every held pair and a failed post puts its pairs
// back, so a pair is posted once unless a post carrying it fails.
type taskSink struct {
	delay time.Duration

	mu      sync.Mutex
	unacked []simwire.Pair
}

func (s *taskSink) Planned(total, resumed, skippedShard, pending int) {}

func (s *taskSink) PairDone(e experiments.CheckpointEntry, wall time.Duration) {
	s.mu.Lock()
	s.unacked = append(s.unacked, simwire.NewPair(e, wall))
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}

// take removes and returns every held pair.
func (s *taskSink) take() []simwire.Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	pairs := s.unacked
	s.unacked = nil
	return pairs
}

// putBack holds a failed post's pairs again, ahead of any finished since.
func (s *taskSink) putBack(pairs []simwire.Pair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unacked = append(pairs, s.unacked...)
}

// post sends the sink's unacknowledged pairs, and errMsg if the run failed,
// in one progress post, putting the pairs back if the post fails.
func (a *Agent) post(ctx context.Context, task *simwire.Task, sink *taskSink, errMsg string) (simwire.ProgressResponse, error) {
	pairs := sink.take()
	resp, err := a.client.TaskProgress(ctx, task.ID, a.workerID, pairs, errMsg)
	if err != nil {
		sink.putBack(pairs)
	}
	return resp, err
}

// runTask executes one leased shard task: the job's experiment restricted
// to the task's pairs, with a heartbeat goroutine posting finished pairs and
// renewing the lease, then a final post carrying whatever is left.
func (a *Agent) runTask(ctx context.Context, task *simwire.Task) {
	a.logf("task %s: %s, %d pairs, attempt %d", task.ID, task.Spec.Experiment,
		len(task.Pairs), task.Attempt)
	sink := &taskSink{delay: a.cfg.PairDelay}
	exp, err := experiments.Lookup(task.Spec.Experiment)
	if err != nil {
		// The coordinator accepted the experiment, so this binary should know
		// it. Failing the job beats a requeue loop across the fleet.
		a.finish(task, sink, err.Error())
		return
	}

	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop, hbDone := make(chan struct{}), make(chan struct{})
	go a.heartbeat(tctx, cancel, task, sink, stop, hbDone)

	opts := task.Spec.Options()
	opts.Parallelism = a.cfg.Parallelism
	opts.Pairs = task.Pairs
	opts.Progress = sink
	_, runErr := exp.Run(tctx, opts)

	// Stopping the heartbeat this way lets a post in flight finish instead
	// of cutting it off, which would send its pairs a second time.
	close(stop)
	<-hbDone
	switch {
	case ctx.Err() != nil:
		// Worker shutdown: salvage finished pairs; the lease expires and the
		// remainder re-runs elsewhere. No error — a shutdown must not fail
		// the job.
		a.salvage(task, sink)
	case tctx.Err() != nil && errors.Is(runErr, context.Canceled):
		// Coordinator told the heartbeat the task is canceled (job canceled
		// or lease lost): nothing further to report.
		a.logf("task %s abandoned (canceled by coordinator)", task.ID)
	case runErr != nil:
		a.finish(task, sink, runErr.Error())
	default:
		a.finish(task, sink, "")
	}
}

// heartbeat posts finished pairs every third of the lease TTL until stop is
// closed, canceling the task when the coordinator says so.
func (a *Agent) heartbeat(tctx context.Context, cancel context.CancelFunc, task *simwire.Task, sink *taskSink, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := a.leaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			resp, err := a.post(tctx, task, sink, "")
			if isUnknownWorker(err) {
				// Coordinator restart or liveness prune: nothing this worker
				// delivers under its old identity can land, so finishing the
				// task would waste it. Abandon now; the main loop
				// re-registers on its next lease call.
				a.logf("task %s: coordinator no longer knows %s; abandoning", task.ID, a.workerID)
				cancel()
				return
			}
			if err != nil {
				// Transient: the pairs went back to the sink, and the next
				// post carries them.
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

// finish makes a task's final post — the pairs still unacknowledged, and
// errMsg if the run failed — retrying briefly so one dropped connection does
// not turn a finished task into a lease-expiry re-run.
func (a *Agent) finish(task *simwire.Task, sink *taskSink, errMsg string) {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := a.post(ctx, task, sink, errMsg)
		cancel()
		if err == nil {
			a.logf("task %s finished (err=%q)", task.ID, errMsg)
			return
		}
		a.logf("task %s: final post attempt %d failed: %v", task.ID, attempt+1, err)
		time.Sleep(500 * time.Millisecond)
	}
}

// salvage posts the pairs finished before a shutdown, best-effort.
func (a *Agent) salvage(task *simwire.Task, sink *taskSink) {
	pairs := sink.take()
	if len(pairs) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := a.client.TaskProgress(ctx, task.ID, a.workerID, pairs, ""); err == nil {
		a.logf("task %s: salvaged %d finished pairs before shutdown", task.ID, len(pairs))
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
