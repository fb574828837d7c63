// Package simserver is the simulation-as-a-service layer over the experiment
// subsystem: a long-lived HTTP server (command nosq-server) that accepts
// experiment jobs from many clients, runs them on a bounded worker pool, and
// deduplicates work at two levels — identical in-flight submissions collapse
// onto one job, and every finished (benchmark, configuration) pair lands in a
// content-addressed result cache that later (or overlapping) grids resume
// from instead of re-simulating.
//
// The REST surface (see DESIGN.md for the full contract):
//
//	POST   /api/v1/jobs               submit a JobSpec → JobInfo
//	GET    /api/v1/jobs               list jobs (?state= filters)
//	GET    /api/v1/jobs/{id}          inspect one job
//	DELETE /api/v1/jobs/{id}          cancel (queued or running)
//	GET    /api/v1/jobs/{id}/events   progress feed, JSONL or SSE (?from=)
//	GET    /api/v1/jobs/{id}/report   finished report (?format=text|markdown|json|csv)
//	GET    /healthz                   liveness + registered experiments
//	GET    /metricsz                  queue/worker/cache/throughput counters
//
// internal/simclient is the typed Go client for this surface.
package simserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/obs"
	"repro/internal/simapi"
	"repro/internal/simstore"
)

// Config configures a Server.
type Config struct {
	// Workers bounds the number of concurrently executing jobs
	// (0 = GOMAXPROCS). Each job's sweep additionally fans out its own
	// simulations, bounded by Parallelism.
	Workers int
	// Parallelism is passed to each job as experiments.Options.Parallelism
	// (0 = GOMAXPROCS). With several workers, keep Workers × Parallelism
	// near the core count.
	Parallelism int
	// CachePath persists the result cache as JSONL ("" = memory-only).
	CachePath string
	// MaxIterations rejects specs asking for longer workloads (0 = no cap).
	// A shared server would otherwise let one client monopolize the pool.
	MaxIterations int
	// MaxFinishedJobs bounds how many terminal jobs (with their event logs
	// and reports) stay queryable; the oldest are evicted past the cap
	// (0 = 1000). Results live on in the result cache regardless — an
	// evicted job's grid re-resolves from cache on re-submission — so this
	// only bounds job metadata, keeping a long-lived server's memory flat.
	MaxFinishedJobs int
	// LeaseTTL bounds how long a remote worker's claim on a shard task
	// survives without a progress post before the task is re-queued for
	// another worker (0 = 15s). Progress posts double as heartbeats, so a
	// healthy worker renews well within the TTL.
	LeaseTTL time.Duration
	// WorkerTTL drops a registered remote worker that has stopped polling
	// (0 = 1 minute, or 4×LeaseTTL if larger); a distributed job stranded
	// with an empty fleet for a further WorkerTTL fails instead of hanging.
	// Clamped to at least 2×LeaseTTL — workers heartbeat at a fraction of
	// the lease TTL, so a shorter worker TTL would prune healthy busy
	// workers mid-task.
	WorkerTTL time.Duration
	// PollInterval is the idle lease-polling interval suggested to remote
	// workers at registration (0 = 500ms).
	PollInterval time.Duration
	// StateDir enables durability: the write-ahead job log (wal.jsonl) lives
	// here and, unless CachePath overrides it, the result cache
	// (results.jsonl) too. A server restarted with the same StateDir replays
	// the log — terminal jobs come back queryable with their reports, and
	// jobs that were queued or running re-queue and resume their
	// already-finished pairs from the result cache. "" = memory-only (a
	// restart loses all jobs, exactly as before).
	StateDir string
	// MaxQueuedJobs bounds the global job queue: submissions beyond it are
	// refused with a retryable QuotaError (HTTP 429 + Retry-After) instead
	// of queuing without bound (0 = unlimited).
	MaxQueuedJobs int
	// QuotaMaxActive caps one client's active (queued or running) jobs, so a
	// single client cannot occupy the whole queue (0 = unlimited).
	QuotaMaxActive int
	// QuotaRate and QuotaBurst rate-limit each client's submissions with a
	// token bucket refilled at QuotaRate tokens/second up to a QuotaBurst
	// capacity (rate 0 = no rate limit; burst 0 = 1).
	QuotaRate  float64
	QuotaBurst int
	// KeepAliveInterval is how often an idle job event stream emits a
	// keep-alive frame (an SSE comment, or a blank JSONL line) so proxies and
	// load balancers do not sever long quiet watches (0 = 15s; negative
	// disables keep-alives).
	KeepAliveInterval time.Duration
	// Logf, if set, receives one line per job lifecycle edge ("" = silent).
	Logf func(format string, args ...interface{})
}

// Server is the simulation service: job registry, queue, worker pool, result
// cache, and the HTTP handler over them. Create with New, start the workers
// with Start, serve Handler, and stop with Shutdown.
type Server struct {
	cfg      Config
	rev      string
	cache    *ResultCache
	queue    *jobQueue
	metrics  *metrics
	prom     *promMetrics
	dispatch *dispatcher
	wal      *simstore.WAL // nil unless cfg.StateDir is set
	mux      *http.ServeMux
	// walCompactEvery compacts the WAL down to a snapshot of the retained
	// jobs after this many appends, so the log does not grow without bound.
	walCompactEvery int

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	recRestored int // terminal jobs replayed from the WAL by New
	recRequeued int // non-terminal jobs re-queued from the WAL by New

	mu       sync.Mutex
	tenants  *tenantRegistry
	jobs     map[string]*job
	order    []*job            // submission order, for listing
	finished []*job            // terminal jobs in completion order, for bounded retention
	active   map[string]string // spec hash → job id, for dedup
	nextSeq  int
}

// New builds a server, warms its result cache from cfg.CachePath, and — when
// cfg.StateDir is set — replays the write-ahead job log, restoring terminal
// jobs and re-queuing the ones a crash interrupted. The returned corrupt
// count is the number of unreadable persisted lines skipped (result cache
// plus WAL; a torn tail from a crash mid-append lands here, never as an
// error).
func New(cfg Config) (s *Server, corrupt int, err error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxFinishedJobs <= 0 {
		cfg.MaxFinishedJobs = 1000
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = time.Minute
		if min := 4 * cfg.LeaseTTL; cfg.WorkerTTL < min {
			cfg.WorkerTTL = min
		}
	} else if min := 2 * cfg.LeaseTTL; cfg.WorkerTTL < min {
		cfg.WorkerTTL = min
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.KeepAliveInterval == 0 {
		cfg.KeepAliveInterval = 15 * time.Second
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("simserver: creating state dir: %w", err)
		}
		if cfg.CachePath == "" {
			cfg.CachePath = filepath.Join(cfg.StateDir, "results.jsonl")
		}
	}
	// Remote workers must register with the same revision.
	rev := obs.CodeRevision()
	cache, corrupt, err := OpenResultCache(cfg.CachePath, rev)
	if err != nil {
		return nil, corrupt, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s = &Server{
		cfg:     cfg,
		rev:     rev,
		cache:   cache,
		queue:   newJobQueue(),
		metrics: &metrics{start: time.Now()},
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*job),
		active:  make(map[string]string),
		tenants: newTenantRegistry(cfg.QuotaMaxActive, cfg.QuotaRate, cfg.QuotaBurst),

		walCompactEvery: 512,
	}
	s.dispatch = newDispatcher(rev, cfg.LeaseTTL, cfg.WorkerTTL, cfg.PollInterval, s.logf)
	s.prom = newPromMetrics(s)
	s.dispatch.spanLog = s.jobSpan
	if cfg.StateDir != "" {
		wal, records, walCorrupt, werr := simstore.Open(filepath.Join(cfg.StateDir, "wal.jsonl"), jsonl.Hooks{},
			func(d time.Duration) { s.prom.walAppend.Observe(d.Seconds()) })
		if werr != nil {
			cache.Close()
			cancel()
			return nil, corrupt, werr
		}
		corrupt += walCorrupt
		if walCorrupt > 0 {
			s.logf("wal: skipped %d corrupt line(s) during replay", walCorrupt)
		}
		s.wal = wal
		s.recover(records)
		// Startup compaction: replay noise (older logs' started and task
		// records, evicted jobs, the corrupt tail) is rewritten away so the
		// log restarts from a clean snapshot of the live state.
		if cerr := wal.Compact(s.walSnapshotLocked()); cerr != nil {
			s.logf("wal: startup compaction: %v", cerr)
		}
	}
	s.routes()
	return s, corrupt, nil
}

// RecoveryStats reports what New replayed from the WAL: jobs restored in a
// terminal state (still queryable, reports included) and jobs re-queued for
// execution because a crash or a stop interrupted them.
func (s *Server) RecoveryStats() (restored, requeued int) {
	return s.recRestored, s.recRequeued
}

// Start launches the worker pool and the lease reaper.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.reaperLoop()
}

// reaperLoop periodically expires remote-worker leases and prunes silent
// workers until Shutdown.
func (s *Server) reaperLoop() {
	defer s.wg.Done()
	tick := s.cfg.LeaseTTL / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	if tick > 2*time.Second {
		tick = 2 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.dispatch.reap(time.Now())
		}
	}
}

// Shutdown stops accepting work, interrupts running jobs, ends every /events
// stream, waits for the workers (or ctx), and closes the result cache and
// the WAL. It ends no job and writes no record: queued jobs stay queued, and
// a run the stop interrupts records nothing, so a durable server re-queues
// both at its next start, exactly as after a kill.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.queue.close()
	s.mu.Unlock()
	s.stop() // cancels every running job's context
	doneCh := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(doneCh)
	}()
	var err error
	select {
	case <-doneCh:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// Cache exposes the result cache (metrics, tests).
func (s *Server) Cache() *ResultCache { return s.cache }

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// DefaultClient is the client identity of submissions that carry none (no
// X-Client-ID header). All anonymous submissions share one quota bucket.
const DefaultClient = "anonymous"

// Submit validates and enqueues a spec under the given client identity
// ("" = DefaultClient), deduplicating against active (queued or running)
// jobs with an identical spec: those return the existing job with Deduped
// set instead of queuing a copy (dedup is free — it consumes no quota).
// Completed jobs do not dedup — a re-submission runs again and is served
// from the result cache.
//
// Admission control runs after validation: the global queue bound, then the
// client's token-bucket rate limit and active-job cap. A refusal is a
// *QuotaError carrying a Retry-After hint. With durability enabled the job
// is written to the WAL before it becomes visible — a submission that cannot
// be made durable is refused rather than accepted into a job registry a
// restart would forget.
func (s *Server) Submit(spec simapi.JobSpec, client string) (simapi.JobInfo, error) {
	if client == "" {
		client = DefaultClient
	}
	// Normalize first: validation, hashing, the WAL and every log line see
	// one canonical spec, so a legacy flat submission and its source-union
	// equivalent are the same job everywhere.
	if err := spec.Normalize(); err != nil {
		return simapi.JobInfo{}, err
	}
	if _, err := experiments.Lookup(spec.Experiment); err != nil {
		return simapi.JobInfo{}, err
	}
	if spec.Iterations < 0 {
		return simapi.JobInfo{}, fmt.Errorf("simserver: negative iterations %d", spec.Iterations)
	}
	if s.cfg.MaxIterations > 0 && spec.Iterations > s.cfg.MaxIterations {
		return simapi.JobInfo{}, fmt.Errorf("simserver: iterations %d exceeds the server cap %d",
			spec.Iterations, s.cfg.MaxIterations)
	}
	for _, w := range spec.Windows {
		if w <= 0 {
			return simapi.JobInfo{}, fmt.Errorf("simserver: invalid window size %d", w)
		}
	}
	for _, name := range spec.Configs {
		if _, err := core.KindByName(strings.TrimSpace(name)); err != nil {
			return simapi.JobInfo{}, err
		}
	}
	if src := spec.Source; src != nil {
		switch src.Kind {
		case simapi.SourceScenario:
			// Reject bad inline scenarios at submission, not minutes later in
			// a worker; the iteration cap applies to the scenario's own count
			// too. A scenario on any other experiment would be silently
			// ignored (yet still alter the dedup hash), so it is a submission
			// error — the CLI rejects the same contradiction.
			if spec.Experiment != "scenario" {
				return simapi.JobInfo{}, fmt.Errorf("simserver: an inline scenario only applies to the scenario experiment, not %q", spec.Experiment)
			}
			if err := src.Scenario.Validate(); err != nil {
				return simapi.JobInfo{}, err
			}
			if s.cfg.MaxIterations > 0 && src.Scenario.Iterations > s.cfg.MaxIterations {
				return simapi.JobInfo{}, fmt.Errorf("simserver: scenario iterations %d exceeds the server cap %d",
					src.Scenario.Iterations, s.cfg.MaxIterations)
			}
		case simapi.SourceTrace:
			// Same contradiction rule for the trace source: only the trace
			// experiment resolves trace ref names.
			if spec.Experiment != "trace" {
				return simapi.JobInfo{}, fmt.Errorf("simserver: a trace source only applies to the trace experiment, not %q", spec.Experiment)
			}
		}
	}
	hash, err := specHash(spec)
	if err != nil {
		return simapi.JobInfo{}, err
	}

	s.mu.Lock()
	if id, ok := s.active[hash]; ok {
		info := s.jobs[id].info()
		s.mu.Unlock()
		s.metrics.deduped.Add(1)
		info.Deduped = true
		return info, nil
	}
	// Shutdown closes the queue under s.mu, so a submission it has begun to
	// refuse never reaches the WAL.
	if s.queue.isClosed() {
		s.mu.Unlock()
		return simapi.JobInfo{}, ErrShuttingDown
	}
	if s.cfg.MaxQueuedJobs > 0 && s.queue.depth() >= s.cfg.MaxQueuedJobs {
		s.tenants.rejectQueueFull(client)
		s.mu.Unlock()
		return simapi.JobInfo{}, &QuotaError{
			Reason:     fmt.Sprintf("job queue is full (%d queued)", s.cfg.MaxQueuedJobs),
			RetryAfter: time.Second,
		}
	}
	if err := s.tenants.admit(client); err != nil {
		s.mu.Unlock()
		return simapi.JobInfo{}, err
	}
	seq := s.nextSeq + 1
	sub := simstore.Record{
		Type: simstore.RecSubmitted, Time: wallNow(), JobID: fmt.Sprintf("job-%06d", seq),
		Seq: seq, Client: client, SpecHash: hash, Spec: &spec,
	}
	if s.wal != nil {
		if err := s.wal.Append(sub); err != nil {
			s.tenants.unadmit(client)
			s.mu.Unlock()
			return simapi.JobInfo{}, fmt.Errorf("simserver: persisting submission: %w", err)
		}
	}
	s.nextSeq = seq
	j := newJob(sub)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.active[hash] = j.id
	s.queue.push(j)
	s.mu.Unlock()
	s.metrics.submitted.Add(1)
	s.logf("submitted %s: %s", j.id, spec)
	return j.info(), nil
}

// ErrShuttingDown is returned by Submit once Shutdown has begun.
var ErrShuttingDown = errors.New("simserver: server is shutting down")

// errCanceled is the cause a client's cancel gives a running job's context.
// A run canceled with any other cause was interrupted by Shutdown.
var errCanceled = errors.New("simserver: job canceled by its client")

// wallNow reads the clock without its monotonic reading, as a WAL record
// keeps a time, so a job's spans measure the same durations live and
// replayed.
func wallNow() time.Time { return time.Now().Round(0) }

// specHash canonicalizes a spec's work-defining fields (priority excluded —
// the same grid at a different priority is still the same work).
func specHash(spec simapi.JobSpec) (string, error) {
	spec.Priority = 0
	b, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Job returns a job's current info.
func (s *Server) Job(id string) (simapi.JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return simapi.JobInfo{}, false
	}
	return j.info(), true
}

// Jobs lists all jobs in submission order, optionally filtered by state.
func (s *Server) Jobs(state string) []simapi.JobInfo {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	out := make([]simapi.JobInfo, 0, len(order))
	for _, j := range order {
		info := j.info()
		if state == "" || info.State == state {
			out = append(out, info)
		}
	}
	return out
}

// Cancel cancels a queued or running job. It reports the job's info after
// the request and whether the job existed.
func (s *Server) Cancel(id string) (simapi.JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return simapi.JobInfo{}, false
	}
	// Queued: take it out of the queue and end it here. Running: cancel its
	// context and let the worker end it. After Shutdown neither ends the
	// job: the stop was the first cancel.
	if s.queue.remove(j) {
		s.end(j, simapi.StateCanceled, "", nil)
		s.logf("canceled %s while queued", j.id)
	} else if j.requestCancel() {
		s.logf("cancel requested for %s", j.id)
	}
	return j.info(), true
}

// worker executes jobs from the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	jctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	now := wallNow()
	if !j.start(cancel, now) {
		// Canceled between pop and start: end it here, since no worker will.
		s.end(j, simapi.StateCanceled, "", nil)
		return
	}
	s.mu.Lock()
	s.tenants.jobStarted(j.client)
	s.mu.Unlock()
	// j.sub is written once at construction, so reading it without the job
	// lock is safe.
	s.prom.queueWait.Observe(now.Sub(j.sub.Time).Seconds())
	s.metrics.jobStarted(j.seq)
	startT := time.Now()
	defer s.metrics.jobEnded(j.seq)

	exp, err := experiments.Lookup(j.spec.Experiment)
	if err != nil {
		s.end(j, simapi.StateFailed, err.Error(), nil)
		return
	}
	opts := j.spec.Options()
	opts.Parallelism = s.cfg.Parallelism
	opts.Store = timedStore{store: s.cache, h: s.prom.cacheLookup}
	sink := &jobSink{j: j, cache: s.cache, m: s.metrics, prom: s.prom}
	opts.Progress = sink
	// With remote workers registered, this worker coordinates instead of
	// simulating: the sweep engine hands its pending pairs to the dispatcher,
	// which leases them to the fleet as shard tasks. With no fleet the job
	// runs in-process exactly as before.
	if n := s.dispatch.liveWorkers(); n > 0 {
		opts.Executor = s.dispatch.executor(j.id, j.spec)
		s.logf("distributing %s across %d remote workers", j.id, n)
	}

	rep, err := exp.Run(jctx, opts)
	if opts.Executor != nil && (errors.Is(err, errNoLiveWorkers) || errors.Is(err, errFleetLost)) {
		// The fleet vanished under the job (all workers died or were pruned
		// between the liveness check and completion). The work is still
		// runnable in-process — and pairs remote workers already delivered
		// are in the result store, so the local re-run resumes them instead
		// of re-simulating.
		s.logf("%s: %v; falling back to in-process execution", j.id, err)
		opts.Executor = nil
		sink.replan = true
		rep, err = exp.Run(jctx, opts)
	}
	switch {
	case err == nil:
		s.end(j, simapi.StateDone, "", rep.Document())
		s.logf("finished %s in %v", j.id, time.Since(startT).Round(time.Millisecond))
	case !errors.Is(err, context.Canceled):
		s.end(j, simapi.StateFailed, err.Error(), nil)
		s.logf("failed %s: %v", j.id, err)
	case context.Cause(jctx) == errCanceled:
		// The client's cancel came before any stop: the first cancel decides.
		s.end(j, simapi.StateCanceled, "", nil)
		s.logf("canceled %s", j.id)
	default:
		// Shutdown interrupted the run. Recording nothing leaves the job as a
		// kill would: a durable server re-queues it at its next start, and
		// its re-run resumes the pairs already in the result cache.
		s.logf("%s interrupted by shutdown", j.id)
	}
}

// end is the one way a job ends. It builds the job's terminal record,
// appends it to the WAL and applies it with job.end, so no client sees the
// job ended before its record is durable. Then it updates the counters and
// the client's gauges, releases the dedup slot, evicts the oldest terminal
// jobs past the retention cap and compacts the WAL when due. s.mu spans all
// of it: a compaction, which snapshots under s.mu, can then never see the
// record durable but the job unfinished, and drop the record. A failed
// append degrades to a logged warning, since the job's work is still
// recoverable from the result cache. end does nothing if the job has
// already ended.
func (s *Server) end(j *job, state, errMsg string, doc *experiments.Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := j.info()
	if simapi.TerminalState(info.State) {
		return
	}
	rec := simstore.Record{
		Type: simstore.RecCompleted, Time: wallNow(), JobID: j.id,
		State: state, Error: errMsg, Started: info.Started, Report: doc,
		Pairs: &simstore.PairCounts{Total: info.TotalPairs, Cached: info.CachedPairs, Executed: info.ExecutedPairs},
	}
	if state == simapi.StateCanceled {
		rec.Type = simstore.RecCanceled
	}
	if s.wal != nil {
		if err := s.wal.Append(rec); err != nil {
			s.logf("wal: %v", err)
		}
	}
	j.end(rec)
	switch state {
	case simapi.StateDone:
		s.metrics.done.Add(1)
	case simapi.StateFailed:
		s.metrics.failed.Add(1)
	case simapi.StateCanceled:
		s.metrics.canceled.Add(1)
	}
	s.tenants.jobFinished(j.client, !info.Started.IsZero())
	if s.active[j.specHash] == j.id {
		delete(s.active, j.specHash)
	}
	s.finished = append(s.finished, j)
	s.evictFinishedLocked()
	if s.wal != nil && s.wal.AppendsSinceCompact() >= s.walCompactEvery {
		if err := s.wal.Compact(s.walSnapshotLocked()); err != nil {
			s.logf("wal: compaction: %v", err)
		}
	}
}

// evictFinishedLocked drops the oldest terminal jobs past the retention cap
// from the registry. Callers hold s.mu, or own the server alone (recover).
func (s *Server) evictFinishedLocked() {
	for len(s.finished) > s.cfg.MaxFinishedJobs {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old.id)
		for i, oj := range s.order {
			if oj == old {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// jobSpan appends a dispatcher-produced timing span to a job's event log
// (dropped if the job is gone or already terminal).
func (s *Server) jobSpan(jobID string, rec obs.SpanRecord) {
	s.mu.Lock()
	j := s.jobs[jobID]
	s.mu.Unlock()
	if j != nil {
		j.span(rec, time.Now())
	}
}

// Health assembles the /healthz document.
func (s *Server) Health() simapi.Health {
	names := experiments.Names()
	sort.Strings(names)
	return simapi.Health{
		Status:      "ok",
		CodeRev:     s.rev,
		Experiments: names,
		Build:       simapi.BuildInfo{CodeRev: s.rev, GoVersion: runtime.Version()},
	}
}

// Metrics assembles the /metricsz document.
func (s *Server) Metrics() simapi.Metrics {
	m := s.metrics.snapshot(s.queue.depth(), s.cfg.Workers, s.cache, s.rev, s.dispatch.stats())
	s.mu.Lock()
	m.Clients = s.tenants.snapshot()
	s.mu.Unlock()
	return m
}
