// Package simstore is the durability layer of the simulation service: a
// write-ahead log of how each job was submitted and how it ended. Every
// record is fsynced on append, so a nosq-server stopped by SIGKILL or
// SIGTERM replays the log on restart and rebuilds its queue, job registry
// and per-client accounting without losing a job.
// The file's crash rules (torn tails, corrupt-line counting, atomic
// compaction) are internal/jsonl's.
//
// The log is the job-level truth; the pair-level truth is the result cache.
// Replay re-queues every job that was not terminal at the crash or stop, and
// the re-run resumes already-finished pairs from the cache — which is what
// makes "no pair executed twice" hold without logging individual pairs here.
package simstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/simapi"
)

// Record types: the job lifecycle, which replay rebuilds jobs from. A job
// has a submitted record and, once it has ended, one terminal record
// (completed or canceled). Only older logs hold started records; replay reads
// them to date those logs' terminal records. The log holds nothing about
// shard tasks, because a re-queued job re-plans its tasks from scratch
// against the result cache.
const (
	RecSubmitted = "submitted"
	RecStarted   = "started"
	RecCompleted = "completed"
	RecCanceled  = "canceled"
)

// Record is one JSONL line of the write-ahead log.
type Record struct {
	Type string    `json:"type"`
	Time time.Time `json:"time"`

	// Job-lifecycle fields.
	JobID    string          `json:"job_id,omitempty"`
	Seq      int             `json:"seq,omitempty"`
	Client   string          `json:"client,omitempty"`
	SpecHash string          `json:"spec_hash,omitempty"`
	Spec     *simapi.JobSpec `json:"spec,omitempty"` // submitted records only
	// State is the terminal state of a completed/canceled record (done,
	// failed, canceled).
	State string `json:"state,omitempty"`
	// Started is when a terminal record's job started running; zero for a
	// job that ended while queued.
	Started time.Time `json:"started,omitzero"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Pairs carries the final pair accounting of a terminal record.
	Pairs *PairCounts `json:"pairs,omitempty"`
	// Report is a done job's report document, from which the server
	// renders the format a client asks for.
	Report *experiments.Document `json:"report,omitempty"`
	// Reports is how records written before Report existed keep a done
	// job's report: rendered in every format (format name → text). Replay
	// serves these texts as they are.
	Reports map[string]string `json:"reports,omitempty"`
}

// PairCounts is the pair accounting persisted with a terminal record.
type PairCounts struct {
	Total    int `json:"total"`
	Cached   int `json:"cached"`
	Executed int `json:"executed"`
}

// WAL is an append-only, fsync-per-append record log. All methods are safe
// for concurrent use.
type WAL struct {
	log        *jsonl.Log
	appendDone func(time.Duration)

	mu      sync.Mutex
	appends int // since the last compaction (or open)
}

// Open opens (or creates) the WAL at path, replays every decodable record,
// and leaves the file open for appends. corrupt counts undecodable lines
// skipped — a torn tail from a crash mid-append lands here, never as an
// error. hooks may be zero (real writes and fsyncs). appendDone, if set,
// observes the wall-clock duration of each successful Append (marshal +
// write + fsync) — the server feeds it into its WAL latency histogram. It is
// called with the WAL lock held; keep it quick.
func Open(path string, hooks jsonl.Hooks, appendDone func(time.Duration)) (w *WAL, records []Record, corrupt int, err error) {
	if path == "" {
		return nil, nil, 0, errors.New("simstore: WAL path is required")
	}
	corrupt, err = jsonl.Scan(path, func(line []byte) bool {
		rec, derr := DecodeRecord(line)
		if derr == nil {
			records = append(records, rec)
		}
		return derr == nil
	})
	if err != nil {
		return nil, nil, corrupt, fmt.Errorf("simstore: reading WAL: %w", err)
	}
	log, err := jsonl.Open(path, hooks)
	if err != nil {
		return nil, nil, corrupt, fmt.Errorf("simstore: opening WAL: %w", err)
	}
	return &WAL{log: log, appendDone: appendDone}, records, corrupt, nil
}

// Append durably logs one record: marshal, write, fsync. An error means the
// record may not be durable — the caller decides whether that fails the
// operation (submissions do) or degrades to a warning (terminal records do,
// since the job's work is still recoverable from the result cache).
func (w *WAL) Append(rec Record) error {
	start := time.Now()
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("simstore: encoding WAL record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Append(b); err != nil {
		return fmt.Errorf("simstore: appending WAL record: %w", err)
	}
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("simstore: syncing WAL: %w", err)
	}
	w.appends++
	if w.appendDone != nil {
		w.appendDone(time.Since(start))
	}
	return nil
}

// AppendsSinceCompact returns the number of records appended since the WAL
// was opened or last compacted — the trigger the server's compaction policy
// watches.
func (w *WAL) AppendsSinceCompact() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends
}

// Compact atomically replaces the log with the given snapshot (see
// jsonl.Log.Rewrite). On error before the commit point the original log is
// left in place.
func (w *WAL) Compact(snapshot []Record) error {
	lines := make([][]byte, len(snapshot))
	for i, rec := range snapshot {
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("simstore: encoding snapshot record: %w", err)
		}
		lines[i] = b
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Rewrite(lines); err != nil {
		return fmt.Errorf("simstore: compacting WAL: %w", err)
	}
	w.appends = 0
	return nil
}

// Close fsyncs and closes the log file. Further appends fail.
func (w *WAL) Close() error {
	return w.log.Close()
}

// DecodeRecord parses and validates one WAL line. It is the single gate
// replay trusts: anything it rejects is counted as corrupt and skipped.
func DecodeRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("simstore: decoding WAL record: %w", err)
	}
	switch r.Type {
	case RecSubmitted:
		if r.JobID == "" || r.Seq <= 0 || r.Spec == nil {
			return Record{}, fmt.Errorf("simstore: submitted record missing job id, seq or spec")
		}
	case RecStarted:
		if r.JobID == "" {
			return Record{}, fmt.Errorf("simstore: started record missing job id")
		}
	case RecCompleted:
		if r.JobID == "" {
			return Record{}, fmt.Errorf("simstore: completed record missing job id")
		}
		if r.State != simapi.StateDone && r.State != simapi.StateFailed {
			return Record{}, fmt.Errorf("simstore: completed record with non-terminal state %q", r.State)
		}
		if r.Report != nil && r.Report.Table == nil {
			return Record{}, fmt.Errorf("simstore: completed record's report has no table")
		}
	case RecCanceled:
		if r.JobID == "" {
			return Record{}, fmt.Errorf("simstore: canceled record missing job id")
		}
	case "lease", "task-done":
		// Older logs record shard-task leases and completions too. Replay
		// ignores them, and the next compaction drops them.
	default:
		return Record{}, fmt.Errorf("simstore: unknown WAL record type %q", r.Type)
	}
	return r, nil
}
