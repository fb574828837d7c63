package simserver

import (
	"time"

	"repro/internal/simapi"
	"repro/internal/simstore"
)

// recover rebuilds the server's job registry from replayed WAL records with
// the code that runs jobs live: newJob builds each job from its submitted
// record, and job.end applies its terminal record. Replay rules:
//
//   - submitted + terminal record → the job ends as it ended live:
//     queryable, with its report document (or the rendered texts of an older
//     record), never re-run. This is what keeps a completed job's pairs from
//     ever running twice.
//   - submitted only (queued or running at the crash or stop) → the job
//     re-queues. Its re-run resumes every pair the interrupted run already
//     persisted to the result cache, so orphaned work is re-planned, not
//     repeated; orphaned shard leases need no bookkeeping here because the
//     re-run splits fresh tasks and workers abandon stale leases on their
//     first 404.
//   - started records, which only older logs carry, date the terminal record
//     that follows them; lease and task-done records are ignored.
//
// recover runs inside New, before the server is shared, so it touches
// mu-guarded fields without the lock.
func (s *Server) recover(records []simstore.Record) {
	started := make(map[string]time.Time)
	for _, rec := range records {
		switch rec.Type {
		case simstore.RecSubmitted:
			if s.jobs[rec.JobID] != nil {
				continue
			}
			j := newJob(rec)
			s.jobs[j.id] = j
			s.order = append(s.order, j)
			s.nextSeq = max(s.nextSeq, j.seq)
		case simstore.RecStarted:
			started[rec.JobID] = rec.Time
		case simstore.RecCompleted, simstore.RecCanceled:
			j := s.jobs[rec.JobID]
			if rec.Started.IsZero() {
				rec.Started = started[rec.JobID]
			}
			// Terminal jobs join the retention ring in completion order, so
			// the same eviction policy applies across restarts.
			if j != nil && j.end(rec) {
				s.finished = append(s.finished, j)
			}
		}
	}
	for _, j := range s.order {
		if simapi.TerminalState(j.state) {
			s.recRestored++
			s.tenants.restore(j.client, false)
			continue
		}
		s.recRequeued++
		s.tenants.restore(j.client, true)
		if _, taken := s.active[j.specHash]; !taken {
			s.active[j.specHash] = j.id
		}
		s.queue.push(j)
		s.logf("recovered %s (%s): re-queued", j.id, j.spec)
	}
	s.evictFinishedLocked()
}

// walSnapshotLocked renders the live state as a compaction snapshot: the
// records each retained job holds, in submission order so replay rebuilds the
// same queue order. A finished job keeps its submitted and terminal records,
// start time included; a queued or running job keeps its submitted record
// alone, and replay re-queues it. Callers hold s.mu (or, in New, have not
// shared the server yet).
func (s *Server) walSnapshotLocked() []simstore.Record {
	out := make([]simstore.Record, 0, 2*len(s.order))
	for _, j := range s.order {
		out = append(out, j.records()...)
	}
	return out
}
