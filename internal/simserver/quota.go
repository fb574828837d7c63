package simserver

import (
	"fmt"
	"time"

	"repro/internal/simapi"
)

// QuotaError is a submission refused by admission control (rate limit,
// bounded queue, or per-client active cap). Handlers map it to HTTP 429 with
// a Retry-After hint.
type QuotaError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("simserver: %s (retry after %v)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// tenant is one client's admission state and gauges.
type tenant struct {
	// tokens is the token-bucket fill at time last; refilled lazily on use.
	tokens float64
	last   time.Time

	queued    int
	running   int
	submitted uint64
	rejected  uint64
}

// tenantRegistry tracks per-client quotas: a token-bucket rate limit on
// submissions, a cap on active (queued or running) jobs per client, and the
// per-client gauges behind /metricsz. The global bounded-queue check lives in
// Server.Submit; this type owns everything keyed by client.
//
// All methods are called with Server.mu held, which is what serializes
// admission decisions — the registry itself adds no locking.
type tenantRegistry struct {
	maxActive int     // per-client active-job cap (0 = unlimited)
	rate      float64 // submissions per second refill (0 = no rate limit)
	burst     float64 // bucket capacity
	now       func() time.Time

	clients map[string]*tenant
}

func newTenantRegistry(maxActive int, rate float64, burst int) *tenantRegistry {
	if burst <= 0 {
		burst = 1
	}
	return &tenantRegistry{
		maxActive: maxActive,
		rate:      rate,
		burst:     float64(burst),
		now:       time.Now,
		clients:   make(map[string]*tenant),
	}
}

func (r *tenantRegistry) get(client string) *tenant {
	t, ok := r.clients[client]
	if !ok {
		t = &tenant{tokens: r.burst, last: r.now()}
		r.clients[client] = t
	}
	return t
}

// admit runs the per-client admission checks for one submission, consuming a
// rate token and reserving a queued slot on success. On refusal it records
// the rejection and returns a QuotaError whose RetryAfter says when the
// limiting resource frees up.
func (r *tenantRegistry) admit(client string) error {
	t := r.get(client)
	if r.rate > 0 {
		now := r.now()
		t.tokens += now.Sub(t.last).Seconds() * r.rate
		if t.tokens > r.burst {
			t.tokens = r.burst
		}
		t.last = now
		if t.tokens < 1 {
			t.rejected++
			wait := time.Duration((1 - t.tokens) / r.rate * float64(time.Second))
			return &QuotaError{
				Reason:     fmt.Sprintf("client %q exceeded the submission rate limit (%.3g/s)", client, r.rate),
				RetryAfter: wait,
			}
		}
		t.tokens--
	}
	if r.maxActive > 0 && t.queued+t.running >= r.maxActive {
		t.rejected++
		return &QuotaError{
			Reason:     fmt.Sprintf("client %q has %d active jobs (cap %d)", client, t.queued+t.running, r.maxActive),
			RetryAfter: time.Second,
		}
	}
	t.queued++
	t.submitted++
	return nil
}

// rejectQueueFull records a refusal that happened before admit (the global
// queue bound), so the client's rejected gauge still counts it.
func (r *tenantRegistry) rejectQueueFull(client string) {
	r.get(client).rejected++
}

// unadmit rolls back a successful admit whose submission then failed to
// become durable (WAL append error): the reserved slot is released and the
// submission uncounted.
func (r *tenantRegistry) unadmit(client string) {
	t := r.get(client)
	t.queued--
	t.submitted--
}

// jobStarted / jobFinished track each job's queued → running → terminal
// journey. wasRunning tells jobFinished which gauge to decrement — a job
// canceled straight out of the queue never ran.
func (r *tenantRegistry) jobStarted(client string) {
	t := r.get(client)
	t.queued--
	t.running++
}

func (r *tenantRegistry) jobFinished(client string, wasRunning bool) {
	t := r.get(client)
	if wasRunning {
		t.running--
	} else {
		t.queued--
	}
}

// restore rebuilds a client's gauges during WAL replay.
func (r *tenantRegistry) restore(client string, queued bool) {
	t := r.get(client)
	t.submitted++
	if queued {
		t.queued++
	}
}

// snapshot renders the per-client gauges for /metricsz.
func (r *tenantRegistry) snapshot() map[string]simapi.ClientMetrics {
	if len(r.clients) == 0 {
		return nil
	}
	out := make(map[string]simapi.ClientMetrics, len(r.clients))
	for name, t := range r.clients {
		out[name] = simapi.ClientMetrics{
			Queued:    t.queued,
			Running:   t.running,
			Submitted: t.submitted,
			Rejected:  t.rejected,
		}
	}
	return out
}

// validClientID constrains the X-Client-ID header to the same conservative
// charset scenario names use, bounded so a hostile header cannot bloat the
// WAL or the metrics document.
func validClientID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '/':
		default:
			return false
		}
	}
	return true
}
