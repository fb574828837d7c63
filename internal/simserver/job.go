package simserver

import (
	"context"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simapi"
	"repro/internal/simstore"
)

// job is the server-side state of one submitted experiment run: the spec, the
// lifecycle state machine, and the append-only progress event log that
// streaming clients follow. It keeps its submitted and terminal WAL records
// as the log holds them: the submitted record gives its identity, the
// terminal record its end (error, finish time and report), and a compaction
// snapshot writes both back.
//
// All mutable fields are guarded by mu. The event log is append-only;
// followers snapshot a suffix under the lock and then wait on the notify
// channel, which is closed and replaced on every append (a broadcast that
// needs no subscriber registry).
type job struct {
	id       string
	seq      int
	spec     simapi.JobSpec
	specHash string
	client   string
	sub      simstore.Record

	mu        sync.Mutex
	state     string
	cancelReq bool
	started   time.Time
	cancel    context.CancelCauseFunc
	term      simstore.Record // zero until the job has ended

	total    int
	cached   int
	executed int

	events []simapi.Event
	notify chan struct{}

	// heapIndex is maintained by jobHeap while the job is queued (-1 after).
	heapIndex int
}

// newJob builds a queued job from its submitted record, live and at replay.
func newJob(sub simstore.Record) *job {
	client := sub.Client
	if client == "" {
		client = DefaultClient
	}
	j := &job{
		id:        sub.JobID,
		seq:       sub.Seq,
		spec:      *sub.Spec,
		specHash:  sub.SpecHash,
		client:    client,
		sub:       sub,
		state:     simapi.StateQueued,
		notify:    make(chan struct{}),
		heapIndex: -1,
	}
	// The record shares the job's copy of the spec, so a retained job pins
	// no allocation of its own for it.
	j.sub.Spec = &j.spec
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: simapi.StateQueued, Time: sub.Time})
	return j
}

// appendEventLocked assigns the next sequence number, appends, and wakes
// followers. Callers must hold mu — except newJob, whose job is not yet
// shared.
func (j *job) appendEventLocked(ev simapi.Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// start transitions queued → running, reporting false if the job was
// canceled before a worker claimed it (including a cancel that raced the
// worker between queue pop and start).
func (j *job) start(cancel context.CancelCauseFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != simapi.StateQueued || j.cancelReq {
		return false
	}
	j.cancel = cancel
	j.startLocked(now)
	return true
}

// startLocked moves the job to running: the running event, then the span of
// its wait in the queue.
func (j *job) startLocked(now time.Time) {
	j.state = simapi.StateRunning
	j.started = now
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: simapi.StateRunning, Time: now})
	j.appendEventLocked(spanEvent(obs.SpanAt("queued", j.sub.Time).EndAt(now), now))
}

// end applies a terminal record: the job takes the record's state and pair
// counts and keeps the record, and its event log gains the run and total
// spans and the terminal event. A record that finds the job queued but
// carries a start time starts it first. Server.end applies the record it has
// just appended; replay applies the records the log holds. end reports
// false, changing nothing, if the job has already ended.
func (j *job) end(rec simstore.Record) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if simapi.TerminalState(j.state) {
		return false
	}
	if j.state == simapi.StateQueued && !rec.Started.IsZero() {
		j.startLocked(rec.Started)
	}
	state := rec.State
	if rec.Type == simstore.RecCanceled {
		state = simapi.StateCanceled
	}
	// Timing spans land before the terminal state event — followers stop at
	// the terminal event, so anything after it would never be streamed.
	if !j.started.IsZero() {
		j.appendEventLocked(spanEvent(obs.SpanAt("run", j.started).EndAt(rec.Time), rec.Time))
	}
	j.appendEventLocked(spanEvent(obs.SpanAt("total", j.sub.Time).EndAt(rec.Time), rec.Time))
	j.state = state
	if rec.Pairs != nil {
		j.total, j.cached, j.executed = rec.Pairs.Total, rec.Pairs.Cached, rec.Pairs.Executed
	}
	j.cancel = nil
	j.term = rec
	j.appendEventLocked(simapi.Event{Type: simapi.EventState, State: state, Error: rec.Error, Time: rec.Time})
	return true
}

// records returns the WAL records the job holds: its submitted record and,
// once it has ended, its terminal record.
func (j *job) records() []simstore.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !simapi.TerminalState(j.state) {
		return []simstore.Record{j.sub}
	}
	return []simstore.Record{j.sub, j.term}
}

// span appends one timing span to the event log, unless the job already
// reached a terminal state (late spans from the dispatcher must not land
// after the terminal event, which ends every follower's stream).
func (j *job) span(rec obs.SpanRecord, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if simapi.TerminalState(j.state) {
		return
	}
	j.appendEventLocked(spanEvent(rec, now))
}

// spanEvent renders a span record as a job event.
func spanEvent(rec obs.SpanRecord, now time.Time) simapi.Event {
	return simapi.Event{
		Type: simapi.EventSpan,
		Time: now,
		Span: &simapi.SpanInfo{
			Name:           rec.Name,
			Start:          rec.Start,
			DurationMillis: float64(rec.Duration) / float64(time.Millisecond),
		},
	}
}

// requestCancel flags the job as cancel-requested and, if it is already
// running, cancels its context with errCanceled as the cause (the sweep
// engine stops dispatching and the worker ends the job canceled). A
// popped-but-not-yet-started job sees the flag in start and never runs. It
// reports whether the job was still cancelable.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if simapi.TerminalState(j.state) {
		return false
	}
	j.cancelReq = true
	if j.cancel != nil {
		j.cancel(errCanceled)
	}
	return true
}

// planned and pairDone record sweep progress (called by the job's
// ProgressSink).
func (j *job) planned(total, cached, pending int, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = total
	j.cached = cached
	j.appendEventLocked(simapi.Event{
		Type:    simapi.EventPlanned,
		Time:    now,
		Planned: &simapi.PlannedInfo{Total: total, Cached: cached, Pending: pending},
	})
}

func (j *job) pairDone(e experiments.CheckpointEntry, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.executed++
	entry := e
	j.appendEventLocked(simapi.Event{Type: simapi.EventPair, Time: now, Entry: &entry})
}

// info snapshots the job as its wire representation.
func (j *job) info() simapi.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return simapi.JobInfo{
		ID:            j.id,
		Spec:          j.spec,
		State:         j.state,
		Client:        j.client,
		Error:         j.term.Error,
		Submitted:     j.sub.Time,
		Started:       j.started,
		Finished:      j.term.Time,
		TotalPairs:    j.total,
		CachedPairs:   j.cached,
		ExecutedPairs: j.executed,
	}
}

// eventsSince returns the events with Seq > from, the job's current state,
// and the channel that will be closed on the next append.
func (j *job) eventsSince(from int) (evs []simapi.Event, state string, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.state, j.notify
}

// rendered returns a done job's report in the given format, rendering it
// from its terminal record's document outside the job lock; a format the
// report cannot render (JSON of a NaN cell) has no text. A record written
// before records carried the document has none, and serves the texts it
// stored, rendered in every format.
func (j *job) rendered(format string) (string, bool) {
	j.mu.Lock()
	report, texts := j.term.Report, j.term.Reports
	j.mu.Unlock()
	if report == nil {
		text, ok := texts[format]
		return text, ok
	}
	text, err := report.Render(format)
	return text, err == nil
}

// jobSink adapts a job (plus the shared cache and metrics counters) to
// experiments.ProgressSink.
type jobSink struct {
	j     *job
	cache *ResultCache
	m     *metrics
	prom  *promMetrics
	// replan marks the in-process fallback re-run after a lost fleet: its
	// plan is skipped entirely — the first plan already recorded the job's
	// true cache hits, and pairs delivered remotely in between would
	// otherwise be re-counted as hits (they were simulated, and already
	// counted as misses) and re-announced in a second planned event.
	replan bool
}

func (s *jobSink) Planned(total, resumed, skippedShard, pending int) {
	if s.replan {
		return
	}
	// Server jobs run unsharded with the shared cache as their only store, so
	// every resumed pair is a cache hit.
	s.cache.RecordHits(uint64(resumed))
	s.j.planned(total, resumed, pending, time.Now())
}

func (s *jobSink) PairDone(e experiments.CheckpointEntry) {
	s.cache.RecordMisses(1)
	s.m.insts.Add(e.Run.Committed)
	if s.prom != nil {
		s.prom.pairDone(e.Config, e.Run.Flushes, e.Run.BypassMispredictions, e.Run.Committed)
	}
	s.j.pairDone(e, time.Now())
}

// PairTimed implements experiments.PairTimer: the sweep engine's per-pair
// wall-time attribution (a config-parallel batch group's wall divided across
// its members) feeds the pair latency histogram.
func (s *jobSink) PairTimed(benchmark, config string, wall time.Duration) {
	if s.prom != nil {
		s.prom.pairLatency.Observe(wall.Seconds())
	}
}
