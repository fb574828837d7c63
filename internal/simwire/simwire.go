// Package simwire defines the coordinator ↔ worker task protocol of the
// distributed simulation service: the JSON bodies exchanged between the
// coordinator (internal/simserver, command nosq-server) and its pull-based
// remote workers (command nosq-worker).
//
// The protocol is three POST endpoints on the coordinator, all initiated by
// the worker (workers need no inbound connectivity):
//
//	POST /api/v1/worker/register            join the fleet → worker id + lease/poll parameters
//	POST /api/v1/worker/lease               claim a shard task (no task in the response = no work)
//	POST /api/v1/worker/tasks/{id}/progress deliver finished pairs or a failure; doubles as the lease heartbeat
//
// A shard task lists the positions, in one job's deterministic pair order, of
// the pending pairs it owes. A worker posts each finished pair once, with the
// wall time its engine measured, and the task ends when its last pair lands.
// Leases expire unless renewed by progress posts; an expired lease re-queues
// the task, naming only the pairs still undelivered, for another worker and
// marks the silent worker suspect. See DESIGN.md "Distributed execution" for
// the full lifecycle.
//
// A fleet runs the coordinator's revision: a worker registers with its code
// revision, and the coordinator refuses (409) one built from another commit,
// whose measurements it would otherwise cache as its own. Decoding tolerates
// unknown fields.
package simwire

import (
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
)

// RegisterRequest enrolls a worker in the coordinator's fleet.
type RegisterRequest struct {
	// Name labels the worker in logs and metrics (e.g. its hostname);
	// uniqueness is not required — identity is the assigned WorkerID.
	Name string `json:"name,omitempty"`
	// Capacity is advisory: how many concurrent simulations the worker runs
	// within a task.
	Capacity int `json:"capacity,omitempty"`
	// CodeRev is the worker binary's code revision (obs.CodeRevision); the
	// coordinator refuses a worker whose revision differs from its own.
	CodeRev string `json:"code_rev"`
}

// RegisterResponse carries the assigned identity and the coordinator's
// protocol parameters.
type RegisterResponse struct {
	// WorkerID identifies the worker in every subsequent request. A
	// coordinator restart invalidates it; requests then fail with 404 and
	// the worker re-registers.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is how long a claimed task stays leased without a
	// progress post; workers should heartbeat at a fraction of this.
	LeaseTTLMillis int `json:"lease_ttl_ms"`
	// PollMillis is the suggested idle polling interval for lease requests.
	PollMillis int `json:"poll_ms"`
}

// LeaseRequest asks for a shard task.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse carries the claimed task, or none when the queue has no
// task for this worker.
type LeaseResponse struct {
	// Task is nil when there is nothing to lease; poll again after
	// PollMillis.
	Task       *Task `json:"task,omitempty"`
	PollMillis int   `json:"poll_ms,omitempty"`
}

// Task is one leased shard task: the pairs of one job it still owes.
type Task struct {
	// ID names the task in progress posts.
	ID string `json:"id"`
	// JobID is the coordinator job this task belongs to (diagnostic).
	JobID string `json:"job_id"`
	// Spec is the job's full spec; the worker re-derives the deterministic
	// pair order from it and executes the listed positions.
	Spec simapi.JobSpec `json:"spec"`
	// Pairs lists the task's pending positions in that order, ascending. A
	// re-leased task names only the pairs no earlier worker delivered.
	Pairs []int `json:"pairs"`
	// Attempt counts lease grants of this task, starting at 1; >1 means a
	// previous worker's lease expired and the task was re-queued.
	Attempt int `json:"attempt,omitempty"`
}

// Pair is one executed pair as a worker delivers it.
type Pair struct {
	Entry experiments.CheckpointEntry `json:"entry"`
	// WallMillis is the wall time the worker's engine measured for the
	// pair's simulation (see experiments.ProgressSink), in milliseconds.
	WallMillis float64 `json:"wall_ms"`
}

// NewPair builds the delivery of one pair simulated in wall.
func NewPair(e experiments.CheckpointEntry, wall time.Duration) Pair {
	return Pair{Entry: e, WallMillis: float64(wall) / float64(time.Millisecond)}
}

// Wall returns the pair's measured simulation time.
func (p Pair) Wall() time.Duration {
	return time.Duration(p.WallMillis * float64(time.Millisecond))
}

// ProgressRequest delivers finished pairs to the coordinator and renews the
// task's lease. A worker posts each pair once, re-sending only the pairs of
// a post that failed; an empty Pairs list is a pure heartbeat. A non-empty
// Error reports a simulation failure, which fails the job as a failing local
// run would; a worker in infrastructure trouble just lets its lease lapse.
type ProgressRequest struct {
	WorkerID string `json:"worker_id"`
	Pairs    []Pair `json:"pairs,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ProgressResponse acknowledges a progress post.
type ProgressResponse struct {
	// Canceled tells the worker to abandon the task: its job was canceled
	// or failed, or the lease was lost (expired and re-queued, possibly
	// already finished by another worker). Delivered pairs are still landed
	// where the task still owes them.
	Canceled bool `json:"canceled,omitempty"`
}
