package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simserver"
	"repro/internal/simworker"
	"repro/internal/traceio"
)

// service is an in-process simulation server, served over a loopback
// httptest listener, optionally with remote worker agents in the same
// process, and the client the workload drives it with.
// The process works inside the set-up directory while the service is up, so
// the trace experiment's default trace directory resolves to the trace set
// recorded there.
type service struct {
	e       env
	prevDir string
	traces  []traceio.Manifest
	srv     *simserver.Server
	ts      *httptest.Server
	hc      *http.Client
	cl      *simclient.Client

	stopAgents context.CancelFunc
	agents     sync.WaitGroup

	specs []simapi.JobSpec

	// service-warm only: the reports and committed-instruction totals the
	// set-up captured per spec.
	refCSV   [][]byte
	refInsts []uint64
}

// startService records the trace set, then boots the server and n agents. A
// durable server keeps its write-ahead job log and result cache in a state
// directory and fsyncs every append; otherwise it keeps both in memory.
func startService(ctx context.Context, e env, agents int, durable bool) (s *service, err error) {
	s = &service{e: e}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.traces, err = recordTraceSet(e.dir, e.seed, e.sc); err != nil {
		return s, err
	}
	if s.prevDir, err = os.Getwd(); err != nil {
		return s, err
	}
	if err = os.Chdir(e.dir); err != nil {
		s.prevDir = ""
		return s, err
	}
	var stateDir string
	if durable {
		stateDir = filepath.Join(e.dir, "state")
	}
	s.srv, _, err = simserver.New(simserver.Config{
		Workers:      1,
		Parallelism:  simParallelism,
		StateDir:     stateDir,
		PollInterval: 10 * time.Millisecond,
		// Workers renew a lease every third of its TTL. At the default 15 s
		// no shard task lives long enough to renew; at 1 s the longer ones
		// do, so the heartbeat path is part of the measured path.
		LeaseTTL: time.Second,
	})
	if err != nil {
		return s, err
	}
	s.srv.Start()
	s.ts = httptest.NewServer(s.srv.Handler())
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	s.cl = simclient.New(s.ts.URL, s.hc)

	actx, cancel := context.WithCancel(context.Background())
	s.stopAgents = cancel
	for k := range agents {
		a, err := simworker.New(simworker.Config{Server: s.ts.URL, Name: fmt.Sprintf("w%d", k+1),
			Parallelism: 1, PollInterval: 10 * time.Millisecond})
		if err != nil {
			return s, err
		}
		s.agents.Add(1)
		go func() {
			defer s.agents.Done()
			_ = a.Run(actx) // returns actx's error once close stops the agents
		}()
	}
	return s, s.awaitWorkers(ctx, agents)
}

// awaitWorkers waits until n remote workers have registered.
func (s *service) awaitWorkers(ctx context.Context, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.cl.Metrics(ctx)
		if err != nil {
			return err
		}
		if m.RemoteWorkers >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers registered", m.RemoteWorkers, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *service) close() error {
	if s.stopAgents != nil {
		s.stopAgents()
		s.agents.Wait()
	}
	if s.ts != nil {
		s.ts.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
	}
	if s.prevDir != "" {
		if cerr := os.Chdir(s.prevDir); err == nil {
			err = cerr
		}
	}
	return err
}

func (s *service) refs() []string {
	refs := make([]string, len(s.traces))
	for i, m := range s.traces {
		refs[i] = m.RefName()
	}
	return refs
}

// roundTrip is one job as a service user sees it: Submit, Wait for the
// terminal state on the event stream, then fetch the CSV report. Its latency
// runs from the submit call to the last report byte.
func (s *service) roundTrip(ctx context.Context, i int, spec simapi.JobSpec, tr *tracer) outcome {
	o := outcome{job: i, spec: spec, start: time.Now()}
	root := tr.id()
	defer func() { tr.record(root, 0, "harness.job", i, o.start, o.end) }()

	id := tr.id()
	info, err := s.cl.Submit(ctx, spec)
	submitted := time.Now()
	o.submit = submitted.Sub(o.start)
	tr.record(id, root, "simclient.submit", i, o.start, submitted)
	if err != nil {
		o.end, o.err = submitted, fmt.Errorf("submit: %w", err)
		return o
	}

	id = tr.id()
	info, o.timings, err = s.cl.WaitTimings(ctx, info.ID)
	waited := time.Now()
	tr.record(id, root, "simclient.wait", i, submitted, waited)
	recordServerSpans(tr, id, i, o.timings)
	o.info = info
	o.notify = notifyDelay(o.timings, waited)
	switch {
	case err != nil:
		o.end, o.err = waited, fmt.Errorf("wait: %w", err)
		return o
	case info.State != simapi.StateDone:
		o.end, o.err = waited, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
		return o
	}

	id = tr.id()
	o.report, err = s.cl.Report(ctx, info.ID, "csv")
	o.end = time.Now()
	o.fetch = o.end.Sub(waited)
	tr.record(id, root, "simclient.report", i, waited, o.end)
	if err != nil {
		o.err = fmt.Errorf("report: %w", err)
	}
	return o
}

// recordServerSpans turns the server's own span events into child spans of
// the client's wait: the queue wait and the run; under the run, a fleet
// job's distribution ("merged": task split to last shard delivered); and
// under that, its shard tasks.
func recordServerSpans(tr *tracer, wait int64, job int, t simclient.TimingSummary) {
	if tr == nil {
		return
	}
	run, merge := tr.id(), tr.id()
	for _, sp := range t.Spans {
		end := sp.Start.Add(time.Duration(sp.DurationMillis * float64(time.Millisecond)))
		switch {
		case sp.Name == "queued":
			tr.record(tr.id(), wait, "simserver.queued", job, sp.Start, end)
		case sp.Name == "run":
			tr.record(run, wait, "simserver.run", job, sp.Start, end)
		case sp.Name == "merged":
			tr.record(merge, run, "simworker.merge", job, sp.Start, end)
		case strings.HasPrefix(sp.Name, "shard["):
			tr.record(tr.id(), merge, "simworker.shard", job, sp.Start, end)
		}
	}
}

// notifyDelay is how long after the server's "total" span ended the client's
// wait returned: the cost of delivering completion to the client.
func notifyDelay(t simclient.TimingSummary, waited time.Time) time.Duration {
	for _, sp := range t.Spans {
		if sp.Name == "total" {
			return waited.Sub(sp.Start.Add(time.Duration(sp.DurationMillis * float64(time.Millisecond))))
		}
	}
	return 0
}

// spanMillis collects the durations of the named server spans (a name ending
// in "[" matches by prefix) across outcomes.
func spanMillis(outs []outcome, name string) []float64 {
	var out []float64
	for _, o := range outs {
		for _, sp := range o.timings.Spans {
			if sp.Name == name || strings.HasSuffix(name, "[") && strings.HasPrefix(sp.Name, name) {
				out = append(out, sp.DurationMillis)
			}
		}
	}
	return out
}

// committedSum adds up the committed column of a CSV report.
func committedSum(report []byte) (uint64, error) {
	recs, err := csv.NewReader(bytes.NewReader(report)).ReadAll()
	if err != nil || len(recs) < 2 {
		return 0, fmt.Errorf("report has no rows (%v)", err)
	}
	col := -1
	for k, h := range recs[0] {
		if h == "committed" {
			col = k
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("report has no committed column")
	}
	var sum uint64
	for _, r := range recs[1:] {
		n, err := strconv.ParseUint(r[col], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("committed %q: %w", r[col], err)
		}
		sum += n
	}
	return sum, nil
}

// serverSnap is a reading of the server's own metrics: the /api/v1/metricsz
// document and every sample of its Prometheus exposition, keyed by the
// sample's name and labels as printed.
type serverSnap struct {
	m       simapi.Metrics
	samples map[string]float64
}

func (s *service) snapshot(ctx context.Context) (serverSnap, error) {
	snap := serverSnap{samples: make(map[string]float64)}
	var err error
	if snap.m, err = s.cl.Metrics(ctx); err != nil {
		return snap, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/api/v1/metricsz?format=prometheus", nil)
	if err != nil {
		return snap, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		// Label values may hold spaces ("POST /api/v1/jobs"); the value is
		// after the last one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap.samples[line[:i]] = v
		}
	}
	return snap, sc.Err()
}

// serviceMetrics computes the simserver and simworker layer metrics of a
// phase from its outcomes and the server readings around it.
func serviceMetrics(outs []outcome, a, b serverSnap, into map[string]float64) {
	var submit, fetch, notify []float64
	for _, o := range outs {
		if o.err == nil {
			submit = append(submit, ms(o.submit))
			fetch = append(fetch, ms(o.fetch))
			notify = append(notify, ms(o.notify))
		}
	}
	into["simserver.submit_ms_p50"] = percentile(submit, 0.5)
	into["simserver.report_ms_p50"] = percentile(fetch, 0.5)
	into["simserver.notify_ms_p50"] = percentile(notify, 0.5)
	into["simserver.queue_wait_ms_p50"] = percentile(spanMillis(outs, "queued"), 0.5)
	into["simserver.run_ms_p50"] = percentile(spanMillis(outs, "run"), 0.5)
	into["simworker.shard_ms_p50"] = percentile(spanMillis(outs, "shard["), 0.5)
	into["simworker.merge_ms_p50"] = percentile(spanMillis(outs, "merged"), 0.5)

	// mean is the mean, in ms, and the number of the observations a
	// histogram's labelled series gained between the readings.
	mean := func(hist string, series ...string) (float64, float64) {
		if len(series) == 0 {
			series = []string{""}
		}
		var sum, n float64
		for _, l := range series {
			sum += b.samples[hist+"_sum"+l] - a.samples[hist+"_sum"+l]
			n += b.samples[hist+"_count"+l] - a.samples[hist+"_count"+l]
		}
		return ratio(sum, n) * 1e3, n
	}
	into["simserver.wal_append_ms_mean"], into["simserver.wal_appends"] = mean("nosq_wal_append_seconds")
	into["simserver.cache_lookup_ms_mean"], _ = mean("nosq_cache_lookup_seconds")
	// Every task is leased by a poll and may be renewed by progress posts;
	// short tasks are never renewed, so both kinds of post count.
	into["simworker.lease_ms_mean"], _ = mean("nosq_http_request_seconds",
		`{route="POST /api/v1/worker/lease"}`, `{route="POST /api/v1/worker/tasks/{id}/progress"}`)
	hits, misses := float64(b.m.CacheHits-a.m.CacheHits), float64(b.m.CacheMisses-a.m.CacheMisses)
	into["simserver.cache_hit_ratio"] = ratio(hits, hits+misses)
	into["simserver.deduped"] = float64(b.m.JobsDeduped - a.m.JobsDeduped)
	done, requeued := float64(b.m.TasksCompleted-a.m.TasksCompleted), float64(b.m.TasksRequeued-a.m.TasksRequeued)
	into["simworker.tasks"] = done
	into["simworker.requeued_frac"] = ratio(requeued, done+requeued)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleetInstance is fleet-cold: two closed-loop clients work through a list
// of distinct jobs on a durable server whose pairs all run on two remote
// workers.
type fleetInstance struct{ *service }

func setupFleet(ctx context.Context, e env) (instance, error) {
	s, err := startService(ctx, e, simParallelism, true)
	if err != nil {
		return nil, err
	}
	// The traced phase runs jobs after the first e.jobs, so they too miss.
	s.specs = serviceSpecs(e.seed, saltFleet, e.sc, s.refs(), 2*e.jobs)
	// Warm-up jobs, at iteration counts no listed job uses, so the first
	// timed jobs find connections open and both workers polling.
	for k := range e.sc.warmups {
		warm := simapi.JobSpec{Experiment: "sweep", Source: simclient.BenchmarkSource("gzip"), Iterations: e.sc.sweepIters[0] - 1 - k}
		if o := s.roundTrip(ctx, -1-k, warm, nil); o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job %d: %w", k, o.err)
		}
	}
	return fleetInstance{s}, nil
}

func (f fleetInstance) runJob(ctx context.Context, i int, tr *tracer) outcome {
	return f.roundTrip(ctx, i, f.specs[i], tr)
}

// verify checks that every pair of every job missed the cache, and compares
// every eighth job's report byte for byte with the same spec run and rendered
// by the experiments library.
func (f fleetInstance) verify(ctx context.Context, outs []outcome) {
	for k := range outs {
		o := &outs[k]
		if o.err != nil {
			continue
		}
		if o.info.CachedPairs != 0 || o.info.ExecutedPairs != o.info.TotalPairs {
			o.err = fmt.Errorf("job %d: %d of %d pairs cached, %d executed; every pair should miss",
				o.job, o.info.CachedPairs, o.info.TotalPairs, o.info.ExecutedPairs)
			continue
		}
		if o.insts, o.err = committedSum(o.report); o.err != nil {
			continue
		}
		if o.job%8 == 0 {
			o.err = matchLibrary(ctx, o)
		}
	}
}

func matchLibrary(ctx context.Context, o *outcome) error {
	exp, err := experiments.Lookup(o.spec.Experiment)
	if err != nil {
		return err
	}
	opts := o.spec.Options()
	opts.Parallelism = simParallelism
	rep, err := exp.Run(ctx, opts)
	if err != nil {
		return fmt.Errorf("job %d: library run: %w", o.job, err)
	}
	want, err := rep.Render("csv")
	if err != nil {
		return err
	}
	if want != string(o.report) {
		return fmt.Errorf("job %d: report differs from the library render of %s", o.job, o.spec)
	}
	return nil
}

func (f fleetInstance) decompSpecs() []simapi.JobSpec {
	return f.specs[:min(f.e.sc.decompJobs, len(f.specs))]
}

func (f fleetInstance) inputs() (string, string) {
	return inputsHash(f.specs, nil), traceSetHash(f.traces)
}

// warmInstance is service-warm: the same server without remote workers,
// whose set-up ran a set of specs once; two closed-loop clients then
// re-submit a seeded sequence of draws from that set, so every pair is a
// cache hit. The server keeps its state in memory, as nosq-server does by
// default: with a state directory every job waits on three fsyncs, and the
// host's disk latency then moved jobs/s by up to 2x from run to run.
type warmInstance struct{ *service }

func setupWarm(ctx context.Context, e env) (instance, error) {
	s, err := startService(ctx, e, 0, false)
	if err != nil {
		return nil, err
	}
	// The set-up's simulations only fill the cache, and the measured phase
	// simulates nothing, so the specs are a quarter of fleet-cold's length.
	// They come from a fixed seed: the instructions their reports cover set
	// sim_minsts_per_s, and benchmarks differ in size, so seeded specs moved
	// it by about 10 % from seed to seed. The run's seed draws the order of
	// the re-submits and the trace set the trace jobs read.
	sc := e.sc
	for _, r := range []*[2]int{&sc.sweepIters, &sc.stressIters, &sc.traceMaxInsts} {
		r[0], r[1] = max(1, r[0]/4), max(1, r[1]/4)
	}
	s.specs = serviceSpecs(fixedSeed, saltWarm, sc, s.refs(), warmSpecs)
	for k, spec := range s.specs {
		o := s.roundTrip(ctx, -1-k, spec, nil)
		if o.err == nil {
			o.insts, o.err = committedSum(o.report)
		}
		if o.err != nil {
			s.close()
			return nil, fmt.Errorf("set-up job %d: %w", k, o.err)
		}
		s.refCSV = append(s.refCSV, o.report)
		s.refInsts = append(s.refInsts, o.insts)
	}
	return warmInstance{s}, nil
}

// draw is the spec job i re-submits: each round of len(specs) jobs submits
// every spec once, in a seeded order.
func (w warmInstance) draw(i int) int {
	round := uint64(i / len(w.specs))
	return rngFor(w.e.seed, saltDraws<<32|round).Perm(len(w.specs))[i%len(w.specs)]
}

// runJob checks the report against the set-up's copy as soon as it arrives,
// so that thousands of reports need not be kept until the end of the run.
func (w warmInstance) runJob(ctx context.Context, i int, tr *tracer) outcome {
	k := w.draw(i)
	o := w.roundTrip(ctx, i, w.specs[k], tr)
	if o.err == nil && !bytes.Equal(o.report, w.refCSV[k]) {
		o.err = fmt.Errorf("job %d: report differs from the set-up's report of spec %d", i, k)
	}
	o.report = nil
	o.insts = w.refInsts[k]
	return o
}

func (w warmInstance) verify(_ context.Context, outs []outcome) {
	for k := range outs {
		o := &outs[k]
		if o.err == nil && (o.info.CachedPairs != o.info.TotalPairs || o.info.ExecutedPairs != 0) {
			o.err = fmt.Errorf("job %d: %d of %d pairs cached, %d executed; every pair should hit",
				o.job, o.info.CachedPairs, o.info.TotalPairs, o.info.ExecutedPairs)
		}
	}
}

func (w warmInstance) decompSpecs() []simapi.JobSpec {
	return w.specs[:min(w.e.sc.decompJobs, len(w.specs))]
}

// inputs hashes the specs and the draws of both phases of a traced run.
func (w warmInstance) inputs() (string, string) {
	draws := make([]int, 2*w.e.jobs)
	for i := range draws {
		draws[i] = w.draw(i)
	}
	return inputsHash(w.specs, draws), traceSetHash(w.traces)
}
