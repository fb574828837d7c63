package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/jsonl"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// traceCache hands out each benchmark's recorded dynamic instruction trace.
// The functional execution of a benchmark is identical under every machine
// configuration, so a sweep records it once and shares it read-only across
// all concurrent simulations of that benchmark. Entries are reference-counted
// by pending job, so a long sweep holds only the traces it is actively
// simulating instead of one per benchmark.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceEntry
	left    map[string]int // pending jobs per benchmark
}

type traceEntry struct {
	once   sync.Once
	record func()
	trace  *emu.Trace
	// The pre-decoded TraceMeta is cached alongside the trace: it is pure
	// configuration-independent preprocessing, so every config-parallel batch
	// of the benchmark shares one pre-decode exactly as it shares one trace.
	meta *pipeline.TraceMeta
	err  error
}

// newTraceCache opens, through src, every workload with a pending job, and
// counts each workload's pending jobs. It runs before any pair does, so a bad
// name fails the sweep up front.
func newTraceCache(src source, pending []sweepJob, opts Options) (*traceCache, error) {
	c := &traceCache{entries: make(map[string]*traceEntry), left: make(map[string]int)}
	for _, j := range pending {
		c.left[j.benchmark]++
		if c.entries[j.benchmark] != nil {
			continue
		}
		rec, err := src.open(j.benchmark, opts)
		if err != nil {
			return nil, err
		}
		e := &traceEntry{}
		// The record closure runs inside once.Do on first use, so workers
		// that share a workload block until its trace and TraceMeta exist,
		// and record or decode the trace and pre-decode its meta exactly
		// once.
		e.record = func() {
			if e.trace, e.err = rec(); e.err == nil {
				e.meta, e.err = pipeline.NewTraceMeta(e.trace)
			}
		}
		c.entries[j.benchmark] = e
	}
	return c, nil
}

// get returns the benchmark's shared trace and TraceMeta, recording the
// trace and pre-decoding its meta on first use.
func (c *traceCache) get(benchmark string) (*emu.Trace, *pipeline.TraceMeta, error) {
	c.mu.Lock()
	e := c.entries[benchmark]
	c.mu.Unlock()
	if e == nil {
		return nil, nil, fmt.Errorf("experiments: no trace entry for benchmark %q", benchmark)
	}
	e.once.Do(e.record)
	return e.trace, e.meta, e.err
}

// release notes that one of the benchmark's jobs finished, dropping the
// trace when none remain.
func (c *traceCache) release(benchmark string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left[benchmark]--; c.left[benchmark] <= 0 {
		delete(c.entries, benchmark)
		delete(c.left, benchmark)
	}
}

// sweepJob is one (benchmark, configuration) simulation in a sweep's
// deterministic job list. index is the job's position in the full list and
// decides which shard owns it.
type sweepJob struct {
	index     int
	benchmark string
	key       string
	cfg       pipeline.Config
}

// PairSlice restricts a run to the contiguous job-list positions
// [Start, End) of the sweep's deterministic pair order. Unlike the modulo
// sharding of Options.Shards, a slice is a dense range — the unit the
// distributed coordinator leases to one remote worker as a shard task.
type PairSlice struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// PairJob identifies one pending (benchmark, configuration) simulation by
// its position in the full deterministic pair order. It is the unit of work
// an Executor is handed: enough to address the pair remotely (a remote
// worker re-derives the grid from the job spec and selects by index), and
// enough for the engine to fold the result back into the sweep.
type PairJob struct {
	Index     int    `json:"index"`
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
}

// ExecRequest is the engine's side of a remote execution: the pending pairs
// after resume and shard filtering, the already-resolved entries a remote
// slice may span, and the callback that lands results.
type ExecRequest struct {
	// Pending lists the pairs to execute, in ascending Index order (a
	// subsequence of the full deterministic pair order).
	Pending []PairJob
	// Resumed maps full-order indices that were already resolved from the
	// result store to their entries. A contiguous slice [Start, End) leased
	// over the full order may span resolved pairs; sending their entries
	// along lets the remote worker resume them instead of re-simulating.
	Resumed map[int]CheckpointEntry
	// Emit reports one executed pair's measurements. It is safe for
	// concurrent use, idempotent per pair (a duplicate emission — e.g. a
	// re-queued shard task whose original worker already delivered some
	// pairs — is ignored), and must not be called after the Executor
	// returns.
	Emit func(PairJob, stats.Run)
}

// Executor runs a sweep's pending pairs somewhere other than the local
// worker pool — the simulation coordinator installs one that leases
// contiguous slices of the pair order to remote workers. The engine still
// owns planning, resume, the result store, and progress events; the
// executor owns only raw pair execution. Returning an error fails the sweep
// (pairs already emitted are still recorded in the store, exactly like a
// local run with a failing pair).
type Executor func(ctx context.Context, req ExecRequest) error

// Summary describes how a sweep's job list was disposed of.
type Summary struct {
	// Total is the size of the full (benchmark × configuration) grid.
	Total int
	// Executed counts jobs simulated by this process.
	Executed int
	// Resumed counts jobs loaded from the checkpoint file instead of re-run.
	Resumed int
	// SkippedShard counts jobs belonging to other shards.
	SkippedShard int
	// Failed counts jobs whose simulation returned an error.
	Failed int
	// CorruptCheckpoint counts checkpoint lines that could not be parsed
	// (e.g. a line truncated when the writing process was killed). They are
	// skipped — their jobs re-run — and surfaced as a warning.
	CorruptCheckpoint int
	// Incomplete counts benchmarks dropped from a table/figure presentation
	// because shard selection left them without a full configuration set.
	Incomplete int
	// BatchGroups and BatchedPairs count config-parallel execution as
	// planned: groups of width > 1 and the pairs they cover. Zero when every
	// group was a singleton. They describe only how pairs were simulated,
	// never what was measured, so they appear in no report rendering.
	BatchGroups  int
	BatchedPairs int
}

// CheckpointEntry is one finished job: one JSON line of a checkpoint file,
// one record of a ResultStore, and the payload of a per-pair progress event.
// Experiment scopes the entry so a store shared across experiments cannot
// serve one experiment's runs to another, and Iterations/MaxInsts pin the
// workload length so a resume under different settings re-runs instead of
// silently serving stale measurements.
type CheckpointEntry struct {
	Experiment string    `json:"experiment,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	MaxInsts   uint64    `json:"max_insts,omitempty"`
	Benchmark  string    `json:"benchmark"`
	Config     string    `json:"config"`
	Run        stats.Run `json:"run"`
}

// Key returns the entry's identity within a result store: the fields that
// must all match for a stored run to be served instead of re-simulated.
func (e CheckpointEntry) Key() string {
	return pairKey(e.Experiment, e.Iterations, e.MaxInsts, e.Benchmark, e.Config)
}

func pairKey(scope string, iterations int, maxInsts uint64, benchmark, config string) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s\x00%s", scope, iterations, maxInsts, benchmark, config)
}

// ResultStore abstracts where finished (benchmark, configuration) runs live.
// Before executing anything, the sweep engine looks up the pair keys of its
// whole grid once — stored entries among them are served as resumed results
// — and it appends every newly finished run. The default store is a JSONL
// checkpoint file (Options.Checkpoint); the simulation server injects a
// content-addressed cache shared across jobs instead (Options.Store).
// Implementations must be safe for concurrent Append calls.
type ResultStore interface {
	// Lookup returns the stored entries whose Key is among keys, by Key,
	// plus a count of corrupt records that were skipped (e.g. a JSONL line
	// truncated by a crash). The engine calls it once per run, with the
	// pair keys of its whole grid.
	Lookup(keys []string) (map[string]CheckpointEntry, int, error)
	// Append durably records one finished run.
	Append(CheckpointEntry) error
}

// ProgressSink observes a sweep as it runs. Planned fires once per sweep,
// after resume and shard filtering decided what actually executes; PairDone
// fires for every pair simulated by this process, as its result lands.
// PairDone may be called concurrently from worker goroutines' result
// collector; implementations are invoked synchronously and should be quick.
type ProgressSink interface {
	// Planned reports the job accounting: the full grid size, pairs resumed
	// from the result store, pairs owned by other shards, and pairs this
	// process will execute.
	Planned(total, resumed, skippedShard, pending int)
	// PairDone reports one executed pair as its checkpoint entry.
	PairDone(CheckpointEntry)
}

// PairTimer is an optional extension of ProgressSink: a sink that also
// implements it receives each locally executed pair's wall-clock simulation
// time. Config-parallel batching makes exact per-pair time unobservable —
// members of one batch simulate interleaved — so the engine times the whole
// execution group and attributes an equal share to each member; singletons
// get their true time. Implementations may be called concurrently
// from worker goroutines and should be quick. The interface is type-asserted
// at runtime, so existing ProgressSink implementations keep working unchanged.
type PairTimer interface {
	PairTimed(benchmark, config string, wall time.Duration)
}

// checkpointFileStore is the default ResultStore: one JSONL checkpoint file,
// appended with one unbuffered write per entry (so every recorded pair
// reaches the OS before it counts as checkpointed) and fsynced when runSweep
// closes it. runSweep opens it only once there is work to run, so a sweep
// that resumes everything never creates or touches the file.
type checkpointFileStore struct {
	path string
	log  *jsonl.Log // set by open
}

// Lookup scans the checkpoint and keeps the entries whose Key is among
// keys, a later line replacing an earlier one; a missing file is an empty
// checkpoint. Lines that do not decode or lack their identifying fields
// (e.g. one truncated when the writing process was killed) are counted as
// corrupt, so callers can warn instead of silently re-running finished work.
func (s *checkpointFileStore) Lookup(keys []string) (map[string]CheckpointEntry, int, error) {
	found := make(map[string]CheckpointEntry)
	want := keySet(keys)
	corrupt, err := jsonl.Scan(s.path, func(line []byte) bool {
		var e CheckpointEntry
		if json.Unmarshal(line, &e) != nil || e.Benchmark == "" || e.Config == "" {
			return false
		}
		if k := e.Key(); want[k] {
			found[k] = e
		}
		return true
	})
	if err != nil {
		return nil, corrupt, fmt.Errorf("experiments: reading checkpoint: %w", err)
	}
	return found, corrupt, nil
}

// keySet returns keys as a set.
func keySet(keys []string) map[string]bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

func (s *checkpointFileStore) open() (err error) {
	if s.log, err = jsonl.Open(s.path, jsonl.Hooks{}); err != nil {
		return fmt.Errorf("experiments: opening checkpoint: %w", err)
	}
	return nil
}

func (s *checkpointFileStore) Append(e CheckpointEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return s.log.Append(b)
}

// runSweep is the sweep engine behind every experiment: it runs each
// (workload, configuration) pair of src × cfgs through the simulator using a
// worker pool, opening each workload once. Locally executed pairs of the
// same benchmark and window geometry run config-parallel — one batch
// simulation over the benchmark's shared trace (see pipeline.Batch and
// planGroups); every pair's measurements are bit-identical whatever the
// group widths, so grouping is invisible in every output.
//
// The job list is deterministic — src.names in order, configuration keys
// sorted — which makes two things possible. First, sharding: with
// opts.Shards > 1, only jobs whose list position i satisfies
// i % Shards == ShardIndex are run, so independent processes (or machines) can
// split one sweep without coordination (opts.Slice selects a contiguous
// position range instead — the coordinated, leased variant of the same idea).
// Second, resumption: every finished job is appended to the configured
// ResultStore (by default a JSONL checkpoint file, Options.Checkpoint), and
// pairs already present in the store are loaded instead of re-run. Entries
// are keyed by (src.scope, iterations, max-insts, benchmark, configuration),
// so a shared store never serves runs across experiments or across workload
// lengths; shards pointed at a shared file (or at per-shard files later
// concatenated) merge into one result set.
//
// Planning and completion are observable through Options.Progress, and the
// store is injectable through Options.Store — the simulation server uses both
// to stream per-pair progress and share one content-addressed result cache
// across jobs.
//
// Cancelling ctx stops dispatching new jobs; in-flight simulations finish,
// are recorded in the store, and runSweep returns ctx.Err().
func runSweep(ctx context.Context, src source, cfgs map[string]pipeline.Config, opts Options) (map[string]map[string]stats.Run, Summary, error) {
	var sum Summary
	if opts.Shards > 1 && (opts.ShardIndex < 0 || opts.ShardIndex >= opts.Shards) {
		return nil, sum, fmt.Errorf("experiments: shard index %d outside [0,%d)", opts.ShardIndex, opts.Shards)
	}
	if opts.Slice != nil && (opts.Slice.Start < 0 || opts.Slice.End < opts.Slice.Start) {
		return nil, sum, fmt.Errorf("experiments: invalid pair slice [%d,%d)", opts.Slice.Start, opts.Slice.End)
	}

	keys := make([]string, 0, len(cfgs))
	for k := range cfgs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	jobs := make([]sweepJob, 0, len(src.names)*len(keys))
	pairs := make([]string, 0, cap(jobs)) // each job's Key in a result store
	for _, b := range src.names {
		for _, k := range keys {
			jobs = append(jobs, sweepJob{index: len(jobs), benchmark: b, key: k, cfg: cfgs[k]})
			pairs = append(pairs, pairKey(src.scope, opts.Iterations, opts.MaxInsts, b, k))
		}
	}
	sum.Total = len(jobs)

	out := make(map[string]map[string]stats.Run, len(src.names))
	for _, b := range src.names {
		out[b] = make(map[string]stats.Run, len(keys))
	}

	store := opts.Store
	var fileStore *checkpointFileStore
	if store == nil && opts.Checkpoint != "" {
		fileStore = &checkpointFileStore{path: opts.Checkpoint}
		store = fileStore
	}
	var done map[string]CheckpointEntry
	if store != nil {
		found, corrupt, err := store.Lookup(pairs)
		if err != nil {
			return nil, sum, err
		}
		done = found
		sum.CorruptCheckpoint = corrupt
		if corrupt > 0 {
			name := opts.Checkpoint
			if name == "" {
				name = "result store"
			}
			fmt.Fprintf(os.Stderr, "warning: checkpoint %s: skipped %d corrupt line(s); the affected jobs will re-run\n",
				name, corrupt)
		}
	}
	var pending []sweepJob
	resumed := make(map[int]CheckpointEntry)
	for _, j := range jobs {
		if e, ok := done[pairs[j.index]]; ok {
			out[j.benchmark][j.key] = e.Run
			resumed[j.index] = e
			sum.Resumed++
			continue
		}
		if opts.Shards > 1 && j.index%opts.Shards != opts.ShardIndex {
			sum.SkippedShard++
			continue
		}
		if opts.Slice != nil && (j.index < opts.Slice.Start || j.index >= opts.Slice.End) {
			sum.SkippedShard++
			continue
		}
		pending = append(pending, j)
	}
	if opts.Progress != nil {
		opts.Progress.Planned(sum.Total, sum.Resumed, sum.SkippedShard, len(pending))
	}
	if len(pending) == 0 {
		return out, sum, ctx.Err()
	}
	// There is work to run: an unwritable checkpoint path must fail now,
	// before minutes of simulation whose results it was meant to persist.
	if fileStore != nil {
		if err := fileStore.open(); err != nil {
			return nil, sum, err
		}
		defer fileStore.log.Close()
	}

	// land records one executed pair — in the results, the store and the
	// progress feed — wherever it ran; a store error becomes firstErr.
	var firstErr error
	land := func(benchmark, key string, run stats.Run) {
		out[benchmark][key] = run
		sum.Executed++
		e := CheckpointEntry{Experiment: src.scope, Iterations: opts.Iterations, MaxInsts: opts.MaxInsts,
			Benchmark: benchmark, Config: key, Run: run}
		if store != nil {
			if werr := store.Append(e); werr != nil && firstErr == nil {
				firstErr = werr
			}
			if opts.afterCheckpoint != nil {
				opts.afterCheckpoint(sum.Executed)
			}
		}
		if opts.Progress != nil {
			opts.Progress.PairDone(e)
		}
	}

	// A configured Executor takes over raw pair execution (the distributed
	// coordinator leases pair slices to remote workers); the engine keeps
	// planning, the store, progress events, and result assembly, so reports
	// merge byte-identically to a locally executed run.
	if opts.Executor != nil {
		var mu sync.Mutex
		req := ExecRequest{
			Pending: make([]PairJob, len(pending)),
			Resumed: resumed,
		}
		for i, j := range pending {
			req.Pending[i] = PairJob{Index: j.index, Benchmark: j.benchmark, Config: j.key}
		}
		req.Emit = func(pj PairJob, run stats.Run) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := out[pj.Benchmark][pj.Config]; !dup {
				land(pj.Benchmark, pj.Config, run)
			}
		}
		execErr := opts.Executor(ctx, req)
		mu.Lock()
		defer mu.Unlock()
		if execErr == nil {
			execErr = firstErr
		}
		if execErr == nil {
			execErr = ctx.Err()
		}
		// Pairs the executor never delivered (its error names why) are the
		// distributed analogue of failed local simulations.
		sum.Failed = len(pending) - sum.Executed
		return out, sum, execErr
	}

	// Each workload's trace is recorded (or decoded) once, on first use, and
	// shared read-only by every simulation of that workload.
	traces, err := newTraceCache(src, pending, opts)
	if err != nil {
		return nil, sum, err
	}

	// Partition the pending pairs into execution groups: same-benchmark,
	// same-geometry pairs run config-parallel as one batch over the shared
	// trace and TraceMeta, and a pair with no partner runs as a width-1
	// batch. Grouping affects only how pairs are simulated — results,
	// checkpoint entries and progress events stay per-pair, so reports are
	// byte-identical to an ungrouped run.
	groups := planGroups(pending)
	for _, g := range groups {
		if len(g.jobs) > 1 {
			sum.BatchGroups++
			sum.BatchedPairs += len(g.jobs)
		}
	}

	workers := opts.workers()
	if workers > len(groups) {
		workers = len(groups)
	}
	groupCh := make(chan sweepGroup)
	resCh := make(chan sweepResult)
	timer, _ := opts.Progress.(PairTimer)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groupCh {
				start := time.Now()
				results := runGroup(g, traces, opts)
				// One batch simulates its members interleaved, so per-pair
				// wall time is the group's time split evenly.
				per := time.Since(start) / time.Duration(len(results))
				for _, r := range results {
					if timer != nil && r.err == nil {
						timer.PairTimed(r.job.benchmark, r.job.key, per)
					}
					resCh <- r
				}
			}
		}()
	}
	go func() {
		defer close(groupCh)
		for _, g := range groups {
			select {
			case groupCh <- g:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	for r := range resCh {
		if r.err != nil {
			sum.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/%s: %w", r.job.benchmark, r.job.key, r.err)
			}
			continue
		}
		land(r.job.benchmark, r.job.key, r.run)
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return out, sum, firstErr
}

// Sweep runs the free-form sweep experiment: every combination of
// opts.Configs (default: all five configuration kinds) × opts.Windows
// (default: the 128-entry window) × the benchmark set (default: the paper's
// selected benchmarks). Unlike the table/figure experiments, a sweep has no
// fixed presentation — it reports the raw per-run measurements, one row per
// grid cell, and is the intended vehicle for sharded and resumable bulk runs.
func Sweep(ctx context.Context, opts Options) (*Report, error) {
	src := benchmarkSource("sweep", defaultBenchmarks(opts, true))
	rep, g, err := runGrid(ctx, "sweep", src, sweepLayout, opts)
	if err != nil {
		return nil, err
	}
	rep.AddMeta("configs", commaList(g.kinds))
	rep.AddMeta("windows", commaList(g.windows))
	rep.AddMeta("benchmarks", len(src.names))
	if opts.Shards > 1 {
		rep.AddMeta("shard", fmt.Sprintf("%d/%d", opts.ShardIndex, opts.Shards))
	}
	return rep, nil
}
