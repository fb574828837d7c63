package simserver

import (
	"maps"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simapi"
)

// promMetrics is the server's Prometheus-facing registry. The flat JSON
// counters behind /metricsz stay the source of truth for everything they
// already cover — the registry exposes them through scrape-time views over
// the same atomics, so the two documents can never drift apart. What is new
// here is what JSON counters cannot express: latency histograms for the
// service's hot paths, per-configuration simulation counters aggregated from
// sweep rows, and HTTP handler durations per route.
type promMetrics struct {
	reg *obs.Registry

	// Latency histograms (seconds).
	queueWait   *obs.Histogram    // job submission → execution start
	pairLatency *obs.Histogram    // one (benchmark, config) pair's simulation
	walAppend   *obs.Histogram    // WAL append incl. fsync
	cacheLookup *obs.Histogram    // result-cache lookup of a job's grid at planning
	leaseRTT    *obs.Histogram    // lease-renewal (progress post) handling
	httpSeconds *obs.HistogramVec // handler duration per route pattern

	// Per-configuration simulation counters, aggregated from sweep rows as
	// pairs land (local and remote alike). Flush and misprediction rates per
	// kinst are derivable by dividing by the committed-instruction counter.
	flushes  *obs.CounterVec
	mispreds *obs.CounterVec
	simInsts *obs.CounterVec
}

// newPromMetrics builds the registry over an already-constructed server
// (its queue, counters, cache, dispatcher, and tenant registry must be set;
// collection happens only at scrape time).
func newPromMetrics(s *Server) *promMetrics {
	r := obs.NewRegistry()
	p := &promMetrics{reg: r}

	r.ConstGauge("nosq_build_info",
		"Build identity of the serving binary; always 1.",
		[]obs.Label{
			{Name: "revision", Value: s.rev},
			{Name: "goversion", Value: runtime.Version()},
		}, 1)
	r.GaugeFunc("nosq_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.metrics.start).Seconds() })

	// Queue and worker pool.
	r.GaugeFunc("nosq_queue_depth", "Jobs waiting in the queue.",
		func() float64 { return float64(s.queue.depth()) })
	r.GaugeFunc("nosq_workers", "Size of the local worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("nosq_workers_busy", "Local workers currently executing a job.",
		func() float64 { busy, _ := s.metrics.busyState(); return float64(busy) })

	// Job lifecycle counters — views over the JSON document's atomics.
	r.CounterFunc("nosq_jobs_submitted_total", "Jobs accepted into the queue.", s.metrics.submitted.Load)
	r.CounterFunc("nosq_jobs_deduped_total", "Submissions collapsed onto an active identical job.", s.metrics.deduped.Load)
	r.CounterFunc("nosq_jobs_done_total", "Jobs finished successfully.", s.metrics.done.Load)
	r.CounterFunc("nosq_jobs_failed_total", "Jobs that failed.", s.metrics.failed.Load)
	r.CounterFunc("nosq_jobs_canceled_total", "Jobs canceled.", s.metrics.canceled.Load)

	// Result cache.
	r.GaugeFunc("nosq_cache_entries", "Entries resident in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	r.CounterFunc("nosq_cache_hits_total", "Pairs served from the result cache.", s.cache.Hits)
	r.CounterFunc("nosq_cache_misses_total", "Pairs simulated because the cache missed.", s.cache.Misses)

	r.CounterFunc("nosq_insts_simulated_total",
		"Committed instructions across all executed pairs.", s.metrics.insts.Load)

	// Distributed fleet.
	r.GaugeFunc("nosq_remote_workers", "Live registered remote workers.",
		func() float64 { return float64(s.dispatch.stats().workers) })
	r.GaugeFunc("nosq_tasks_queued", "Shard tasks waiting for a lease.",
		func() float64 { return float64(s.dispatch.stats().queued) })
	r.GaugeFunc("nosq_tasks_leased", "Shard tasks currently leased.",
		func() float64 { return float64(s.dispatch.stats().leased) })
	r.CounterFunc("nosq_tasks_completed_total", "Shard tasks fully delivered.", s.dispatch.completed.Load)
	r.CounterFunc("nosq_tasks_requeued_total", "Expired leases that re-queued their task.", s.dispatch.requeued.Load)
	r.CounterFunc("nosq_remote_pairs_total", "Pairs delivered by remote workers.", s.dispatch.remotePairs.Load)

	// Per-client quota accounting; the label population grows as clients
	// appear, so these are full-sample-set collectors.
	r.GaugeSet("nosq_client_active_jobs", "Queued plus running jobs per client.",
		func() []obs.Sample {
			return clientSamples(s, func(c simapi.ClientMetrics) float64 { return float64(c.Queued + c.Running) })
		})
	r.CounterSet("nosq_client_submitted_total", "Accepted submissions per client.",
		func() []obs.Sample {
			return clientSamples(s, func(c simapi.ClientMetrics) float64 { return float64(c.Submitted) })
		})
	r.CounterSet("nosq_client_rejected_total", "Quota-refused submissions per client.",
		func() []obs.Sample {
			return clientSamples(s, func(c simapi.ClientMetrics) float64 { return float64(c.Rejected) })
		})

	p.queueWait = r.Histogram("nosq_job_queue_wait_seconds",
		"Time a job spent queued before a worker started it.", nil)
	p.pairLatency = r.Histogram("nosq_pair_sim_seconds",
		"Wall-clock simulation time of one (benchmark, configuration) pair; config-parallel batches attribute an equal share per member, remote shard tasks divide worker-reported wall time across their pairs.", nil)
	p.walAppend = r.Histogram("nosq_wal_append_seconds",
		"WAL append latency including the fsync.", nil)
	p.cacheLookup = r.Histogram("nosq_cache_lookup_seconds",
		"Result-cache lookup latency of a job's planned grid, one per job.", nil)
	p.leaseRTT = r.Histogram("nosq_lease_renewal_seconds",
		"Server-side handling time of a lease-renewing worker progress post.", nil)
	p.httpSeconds = r.HistogramVec("nosq_http_request_seconds",
		"HTTP handler duration by route pattern.", "route", nil)

	p.flushes = r.CounterVec("nosq_sim_flushes_total",
		"Pipeline flushes aggregated from finished pairs, per configuration.", "config")
	p.mispreds = r.CounterVec("nosq_sim_bypass_mispredictions_total",
		"Bypass mispredictions aggregated from finished pairs, per configuration.", "config")
	p.simInsts = r.CounterVec("nosq_sim_committed_insts_total",
		"Committed instructions aggregated from finished pairs, per configuration (divide the flush/misprediction counters by this for per-kinst rates).", "config")
	return p
}

// pairDone folds one finished pair's measurements into the per-config
// counters (called for local and remote pairs alike, via jobSink.PairDone).
func (p *promMetrics) pairDone(config string, flushes, mispreds, committed uint64) {
	p.flushes.With(config).Add(flushes)
	p.mispreds.With(config).Add(mispreds)
	p.simInsts.With(config).Add(committed)
}

// clientSamples snapshots the tenant registry into one family's samples, in
// client-name order so every scrape lists the series alike.
func clientSamples(s *Server, value func(simapi.ClientMetrics) float64) []obs.Sample {
	s.mu.Lock()
	snap := s.tenants.snapshot()
	s.mu.Unlock()
	out := make([]obs.Sample, 0, len(snap))
	for _, client := range slices.Sorted(maps.Keys(snap)) {
		out = append(out, obs.Sample{
			Labels: []obs.Label{{Name: "client", Value: client}},
			Value:  value(snap[client]),
		})
	}
	return out
}

// timedStore wraps a job's ResultStore to observe the latency of its one
// lookup of the planned grid; appends pass through untimed (they are covered
// by WAL/cache write paths).
type timedStore struct {
	store experiments.ResultStore
	h     *obs.Histogram
}

func (t timedStore) Lookup(keys []string) (map[string]experiments.CheckpointEntry, int, error) {
	defer t.h.ObserveSince(time.Now())
	return t.store.Lookup(keys)
}

func (t timedStore) Append(e experiments.CheckpointEntry) error { return t.store.Append(e) }
