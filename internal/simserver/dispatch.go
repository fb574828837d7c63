package simserver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simapi"
	"repro/internal/simwire"
	"repro/internal/stats"
)

// errUnknownWorker rejects requests carrying a worker id the coordinator
// does not know — never registered, pruned for silence, or from before a
// coordinator restart. The HTTP layer maps it to 404; workers respond by
// re-registering.
var errUnknownWorker = errors.New("simserver: unknown worker")

// errNoLiveWorkers and errFleetLost are the distribution-infrastructure
// failures: the fleet was empty when the executor tried to split a job, or
// emptied for a full worker TTL while shard tasks were outstanding. runJob
// recognizes them and falls back to in-process execution — pairs already
// delivered are in the result store, so the local re-run resumes them.
var (
	errNoLiveWorkers = errors.New("simserver: no live remote workers to distribute to")
	errFleetLost     = errors.New("simserver: remote worker fleet lost; leased shard tasks cannot be re-run")
)

// dispatcher is the coordinator side of the distributed execution protocol:
// the remote-worker fleet, the shard-task queue, and lease bookkeeping. A
// job popped by a server worker is split into shard tasks (runs of its
// pending pairs, in pair order) through the experiments.Executor seam;
// pull-based remote workers lease tasks, post finished pairs back, and the
// dispatcher folds them into the engine's emit callback, so the merged
// report, the job's event log, and /metricsz are all produced by exactly the
// code a local run uses.
//
// Leases expire unless renewed by progress posts. The reaper re-queues
// expired tasks, excluding the silent worker from re-claiming them, and
// prunes workers that stop polling entirely.
type dispatcher struct {
	rev          string // the coordinator's code revision, which workers must match
	leaseTTL     time.Duration
	workerTTL    time.Duration
	pollInterval time.Duration
	logf         func(format string, args ...interface{})
	// spanLog, when set, appends a timing span to the owning job's event log
	// (one "shard[i]" span per retired task, first lease → full delivery).
	// It takes the job's own locks, so it is never called under d.mu.
	spanLog func(jobID string, rec obs.SpanRecord)

	mu         sync.Mutex
	workers    map[string]*remoteWorker
	tasks      map[string]*shardTask // queued + leased tasks by id
	queue      []*shardTask          // FIFO of queued tasks
	nextWorker int
	nextTask   int

	completed   atomic.Uint64
	requeued    atomic.Uint64
	remotePairs atomic.Uint64
}

func newDispatcher(rev string, leaseTTL, workerTTL, pollInterval time.Duration, logf func(string, ...interface{})) *dispatcher {
	return &dispatcher{
		rev:          rev,
		leaseTTL:     leaseTTL,
		workerTTL:    workerTTL,
		pollInterval: pollInterval,
		logf:         logf,
		workers:      make(map[string]*remoteWorker),
		tasks:        make(map[string]*shardTask),
	}
}

// remoteWorker is one registered fleet member. (The advisory capacity a
// worker registers with is logged but does not influence scheduling yet —
// tasks are leased pull-style, so a faster worker simply claims more.)
type remoteWorker struct {
	id       string
	name     string
	lastSeen time.Time
}

type taskState int

const (
	taskQueued taskState = iota
	taskLeased
)

// shardTask is one leased unit of distributed work: a run of one job's
// pending pairs, in pair order. pending holds the pairs no worker has
// delivered yet, and a lease names only those, so a re-leased task's next
// worker simulates just the remainder.
type shardTask struct {
	id  string
	run *distRun

	idx        int       // position among the run's tasks, for the shard[idx] span
	firstLease time.Time // when the first worker claimed the task
	pending    map[string]experiments.PairJob
	attempt    int
	excluded   map[string]bool // workers that lost a lease on this task

	state    taskState
	workerID string
	expiry   time.Time
}

// pairID keys a task's pending set; a grid never repeats a
// (benchmark, configuration) pair.
func pairID(benchmark, config string) string { return benchmark + "\x00" + config }

// take removes delivered pairs from the task's pending set, returning the
// matched pairs in delivery order. Unknown pairs (not in the task, or
// already delivered by another worker) are ignored — duplicates cannot
// double-emit. Callers hold d.mu.
func (t *shardTask) take(pairs []simwire.Pair) []pairResult {
	var out []pairResult
	for _, p := range pairs {
		id := pairID(p.Entry.Benchmark, p.Entry.Config)
		pj, ok := t.pending[id]
		if !ok {
			continue
		}
		delete(t.pending, id)
		out = append(out, pairResult{job: pj, run: p.Entry.Run, wall: p.Wall()})
	}
	return out
}

// positions lists the task's pending pairs by position in the pair order,
// ascending. Callers hold d.mu.
func (t *shardTask) positions() []int {
	out := make([]int, 0, len(t.pending))
	for _, pj := range t.pending {
		out = append(out, pj.Index)
	}
	slices.Sort(out)
	return out
}

type pairResult struct {
	job  experiments.PairJob
	run  stats.Run
	wall time.Duration
}

// distRun is one distributed job execution: the bridge between the sweep
// engine blocked inside the executor and the HTTP handlers delivering
// remote results. Emission and the completion bookkeeping are serialized by
// its own mutex so the engine's Emit contract (no calls after the executor
// returns) holds.
type distRun struct {
	jobID string
	spec  simapi.JobSpec
	tasks []*shardTask

	mu        sync.Mutex
	emit      func(experiments.PairJob, stats.Run, time.Duration)
	remaining int // pairs not yet landed
	done      bool
	err       error
	doneCh    chan struct{}

	// noWorkers marks since when the fleet has been empty while this run
	// still had tasks (zero = fleet non-empty). Guarded by dispatcher.mu,
	// not run.mu — only the reaper and executor setup touch it.
	noWorkers time.Time
}

// land emits pairs a task has just released and completes the run once its
// last pair has landed; errMsg fails the run instead. Counting pairs rather
// than tasks keeps a run from completing while another post's pairs, already
// taken from their task, are still on their way here.
func (r *distRun) land(pairs []pairResult, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	for _, p := range pairs {
		r.emit(p.job, p.run, p.wall)
	}
	r.remaining -= len(pairs)
	if errMsg != "" {
		r.err = errors.New(errMsg)
	} else if r.remaining > 0 {
		return
	}
	r.done = true
	close(r.doneCh)
}

// abandon marks the run over without completing it (job canceled, or failed
// from outside a delivery); late deliveries become no-ops and workers are
// told to abandon their leases.
func (r *distRun) abandon(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	if err != nil {
		r.err = err
		close(r.doneCh)
	}
}

func (r *distRun) isDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

func (r *distRun) result() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// register adds a worker to the fleet. It refuses a worker built from
// another revision: every pair the coordinator lands is cached under its own
// revision, so a foreign binary's measurements would be served as this one's.
func (d *dispatcher) register(req simwire.RegisterRequest) (simwire.RegisterResponse, error) {
	if req.CodeRev != d.rev {
		err := fmt.Errorf("simserver: worker %q runs code revision %q but the coordinator runs %q; build workers from the coordinator's commit",
			req.Name, req.CodeRev, d.rev)
		d.logf("%v", err)
		return simwire.RegisterResponse{}, err
	}
	now := time.Now()
	d.mu.Lock()
	d.nextWorker++
	w := &remoteWorker{
		id:       fmt.Sprintf("worker-%06d", d.nextWorker),
		name:     req.Name,
		lastSeen: now,
	}
	d.workers[w.id] = w
	n := len(d.workers)
	d.mu.Unlock()
	d.logf("worker %s (%q, capacity %d) registered; fleet size %d", w.id, req.Name, req.Capacity, n)
	return simwire.RegisterResponse{
		WorkerID:       w.id,
		LeaseTTLMillis: int(d.leaseTTL / time.Millisecond),
		PollMillis:     int(d.pollInterval / time.Millisecond),
	}, nil
}

// liveWorkers returns the current fleet size — the coordinator distributes
// a job only when it is non-zero.
func (d *dispatcher) liveWorkers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.workers)
}

// lease claims the oldest queued task this worker is not excluded from. A
// task every live worker is excluded from may be claimed by anyone — a
// suspect fleet must not starve a job. A nil task with nil error means
// "no work; poll again".
func (d *dispatcher) lease(workerID string) (*simwire.Task, error) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return nil, errUnknownWorker
	}
	w.lastSeen = now
	idx := -1
	for i, t := range d.queue {
		if !t.excluded[workerID] {
			idx = i
			break
		}
	}
	if idx < 0 {
	scan:
		for i, t := range d.queue {
			for id := range d.workers {
				if !t.excluded[id] {
					continue scan // someone better-suited may still claim it
				}
			}
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, nil
	}
	t := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	t.state = taskLeased
	t.workerID = workerID
	t.attempt++
	if t.firstLease.IsZero() {
		t.firstLease = now
	}
	t.expiry = now.Add(d.leaseTTL)
	d.logf("task %s (%d pairs) of %s leased to %s (attempt %d)",
		t.id, len(t.pending), t.run.jobID, workerID, t.attempt)
	return &simwire.Task{
		ID:      t.id,
		JobID:   t.run.jobID,
		Spec:    t.run.spec,
		Pairs:   t.positions(),
		Attempt: t.attempt,
	}, nil
}

// deliver handles one progress post: it lands the pairs the task still owes,
// renews the sender's lease, and retires the task once its last pending pair
// has landed. Pairs land even from a worker that lost the lease — late
// results are still valid measurements — but everyone except the holder is
// told to abandon the task. A reported simulation error fails the whole job
// (exactly as a failing pair fails a local run), but only from the lease
// holder: a worker whose lease already expired is reporting on work someone
// else now owns, and its error (likely the very stall that cost it the
// lease) must not discard the healthy re-run.
func (d *dispatcher) deliver(taskID, workerID string, pairs []simwire.Pair, errMsg string) (canceled bool, err error) {
	now := time.Now()
	d.mu.Lock()
	w := d.workers[workerID]
	if w == nil {
		d.mu.Unlock()
		return true, errUnknownWorker
	}
	w.lastSeen = now
	t := d.tasks[taskID]
	if t == nil {
		// Finished, withdrawn with its job, or never existed: nothing to
		// land, abandon.
		d.mu.Unlock()
		return true, nil
	}
	run := t.run
	landed := t.take(pairs)
	d.remotePairs.Add(uint64(len(landed)))
	holder := t.state == taskLeased && t.workerID == workerID
	switch {
	case errMsg != "" && holder:
		d.logf("task %s failed on %s: %s", t.id, workerID, errMsg)
		d.withdrawLocked(run)
		d.mu.Unlock()
		run.land(landed, fmt.Sprintf("remote worker %s: %s", workerID, errMsg))
		return true, nil
	case errMsg != "":
		d.logf("task %s: ignoring failure from stale worker %s: %s", t.id, workerID, errMsg)
	case holder:
		t.expiry = now.Add(d.leaseTTL)
	}
	emitSpan := noSpan
	if len(t.pending) == 0 {
		d.logf("task %s delivered; its last pairs came from %s", t.id, workerID)
		emitSpan = d.finishTaskLocked(t)
	}
	d.mu.Unlock()
	emitSpan()
	run.land(landed, "")
	return !holder || run.isDone(), nil
}

// noSpan is the no-op span emitter finishTaskLocked returns when there is
// nothing to emit.
func noSpan() {}

// finishTaskLocked retires a fully delivered task. Callers hold d.mu and must
// invoke the returned closure after releasing it: span emission takes the
// owning job's locks, which must never nest inside d.mu.
func (d *dispatcher) finishTaskLocked(t *shardTask) (emitSpan func()) {
	if t.state == taskQueued {
		d.removeQueuedLocked(t)
	}
	delete(d.tasks, t.id)
	d.completed.Add(1)
	if d.spanLog == nil {
		return noSpan
	}
	jobID := t.run.jobID
	rec := obs.SpanAt(fmt.Sprintf("shard[%d]", t.idx), t.firstLease).End()
	return func() { d.spanLog(jobID, rec) }
}

// requeueLocked sends a task whose lease expired back to the queue,
// excluding the worker that held it: that worker is suspect for this task.
// Callers hold d.mu.
func (d *dispatcher) requeueLocked(t *shardTask) {
	d.logf("task %s: lease expired; worker %s marked suspect, task re-queued (%d pairs left)",
		t.id, t.workerID, len(t.pending))
	t.excluded[t.workerID] = true
	t.state = taskQueued
	t.workerID = ""
	d.queue = append(d.queue, t)
	d.requeued.Add(1)
}

func (d *dispatcher) removeQueuedLocked(t *shardTask) {
	for i, q := range d.queue {
		if q == t {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			return
		}
	}
}

// withdrawLocked removes all of a run's live tasks (job canceled or
// failed). Workers still holding one learn on their next contact. Callers
// hold d.mu.
func (d *dispatcher) withdrawLocked(run *distRun) {
	for _, t := range run.tasks {
		if d.tasks[t.id] == t {
			if t.state == taskQueued {
				d.removeQueuedLocked(t)
			}
			delete(d.tasks, t.id)
		}
	}
}

// withdraw is withdrawLocked plus marking the run abandoned, for the
// executor's cancellation path.
func (d *dispatcher) withdraw(run *distRun) {
	d.mu.Lock()
	d.withdrawLocked(run)
	d.mu.Unlock()
	run.abandon(nil)
}

// reap is the periodic lease/liveness sweep: expired leases re-queue their
// tasks, silent workers leave the fleet, and runs stranded with an empty
// fleet for a full worker TTL fail rather than hang forever.
func (d *dispatcher) reap(now time.Time) {
	var failed []*distRun
	d.mu.Lock()
	for _, t := range d.tasks {
		if t.state == taskLeased && now.After(t.expiry) {
			d.requeueLocked(t)
		}
	}
	for id, w := range d.workers {
		if now.Sub(w.lastSeen) > d.workerTTL {
			delete(d.workers, id)
			d.logf("worker %s (%q) silent for %v; dropped from fleet", id, w.name, d.workerTTL)
		}
	}
	if len(d.workers) == 0 {
		seen := make(map[*distRun]bool)
		for _, t := range d.tasks {
			r := t.run
			if seen[r] {
				continue
			}
			seen[r] = true
			switch {
			case r.noWorkers.IsZero():
				r.noWorkers = now
			case now.Sub(r.noWorkers) > d.workerTTL:
				failed = append(failed, r)
			}
		}
		for _, r := range failed {
			d.withdrawLocked(r)
		}
	} else {
		for _, t := range d.tasks {
			t.run.noWorkers = time.Time{}
		}
	}
	d.mu.Unlock()
	for _, r := range failed {
		d.logf("job %s: no live remote workers for %v; failing its distributed run", r.jobID, d.workerTTL)
		r.abandon(errFleetLost)
	}
}

// executor returns the experiments.Executor that distributes one job: it
// splits the pending pairs into one shard task per live worker, each a run
// of them in pair order (so a worker shares each benchmark's trace across
// its pairs), queues them, and blocks until every pair is delivered, the job
// fails, or the context is canceled.
func (d *dispatcher) executor(jobID string, spec simapi.JobSpec) experiments.Executor {
	return func(ctx context.Context, req experiments.ExecRequest) error {
		distStart := time.Now()
		d.mu.Lock()
		n := len(d.workers)
		if n == 0 {
			d.mu.Unlock()
			return errNoLiveWorkers
		}
		nTasks := min(n, len(req.Pending))
		run := &distRun{
			jobID:     jobID,
			spec:      spec,
			emit:      req.Emit,
			remaining: len(req.Pending),
			doneCh:    make(chan struct{}),
		}
		for i := 0; i < nTasks; i++ {
			chunk := req.Pending[i*len(req.Pending)/nTasks : (i+1)*len(req.Pending)/nTasks]
			d.nextTask++
			t := &shardTask{
				id:       fmt.Sprintf("task-%06d", d.nextTask),
				run:      run,
				idx:      i,
				pending:  make(map[string]experiments.PairJob, len(chunk)),
				excluded: make(map[string]bool),
			}
			for _, pj := range chunk {
				t.pending[pairID(pj.Benchmark, pj.Config)] = pj
			}
			run.tasks = append(run.tasks, t)
			d.tasks[t.id] = t
			d.queue = append(d.queue, t)
		}
		d.mu.Unlock()
		d.logf("%s: %d pending pairs split into %d shard tasks for %d workers",
			jobID, len(req.Pending), nTasks, n)
		select {
		case <-run.doneCh:
			err := run.result()
			if err == nil && d.spanLog != nil {
				// One "merged" span per distributed run: task split → last
				// shard delivered and folded into the engine's emit stream.
				d.spanLog(jobID, obs.SpanAt("merged", distStart).End())
			}
			return err
		case <-ctx.Done():
			d.withdraw(run)
			return ctx.Err()
		}
	}
}

// fleetStats is the dispatcher's /metricsz contribution.
type fleetStats struct {
	workers, queued, leased          int
	completed, requeued, remotePairs uint64
}

func (d *dispatcher) stats() fleetStats {
	d.mu.Lock()
	workers := len(d.workers)
	queued := len(d.queue)
	leased := 0
	for _, t := range d.tasks {
		if t.state == taskLeased {
			leased++
		}
	}
	d.mu.Unlock()
	return fleetStats{
		workers:     workers,
		queued:      queued,
		leased:      leased,
		completed:   d.completed.Load(),
		requeued:    d.requeued.Load(),
		remotePairs: d.remotePairs.Load(),
	}
}
