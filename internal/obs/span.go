package obs

import "time"

// SpanRecord is one completed span of a job's lifecycle: a named phase, when
// it started, and how long it lasted. Spans are embedded into the job event
// log (simapi.EventSpan events) rather than shipped to an external tracer —
// the event log is already durable, streamable, and per-job, which is
// exactly the scope a simulation job's trace needs.
type SpanRecord struct {
	// Name identifies the phase: "queued", "run", "shard[3]", "merged",
	// "done".
	Name string `json:"name"`
	// Start is the wall-clock start of the phase.
	Start time.Time `json:"start"`
	// Duration is how long the phase lasted.
	Duration time.Duration `json:"duration"`
}

// Span is an in-flight phase; End closes it into a SpanRecord. The handed-out
// duration uses the monotonic clock carried by start.
type Span struct {
	name  string
	start time.Time
}

// SpanAt begins a phase at an explicit start time — for phases whose
// beginning was recorded before the span API got involved (a job's submit
// time, a shard's first lease).
func SpanAt(name string, start time.Time) Span { return Span{name: name, start: start} }

// End closes the span.
func (s Span) End() SpanRecord {
	return SpanRecord{Name: s.name, Start: s.start, Duration: time.Since(s.start)}
}

// EndAt closes the span at an explicit end time.
func (s Span) EndAt(end time.Time) SpanRecord {
	return SpanRecord{Name: s.name, Start: s.start, Duration: end.Sub(s.start)}
}
