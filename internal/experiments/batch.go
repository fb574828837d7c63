package experiments

import (
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// batchGroupCap bounds how many configurations one config-parallel batch
// simulates together. Each member carries its own window, caches and
// predictor state, so an unbounded group would blow the per-worker cache
// footprint that makes sharing the trace a win in the first place.
const batchGroupCap = 8

// sweepGroup is the worker pool's unit of execution: pending pairs of one
// benchmark that run as a single batch over the benchmark's shared trace and
// TraceMeta. A group of one pair is a width-1 batch.
type sweepGroup struct {
	benchmark string
	jobs      []sweepJob // ascending index order
}

// groupKey decides which pending pairs may share one batch: the same
// benchmark (members replay one recorded trace) and the same window geometry
// (members of equal ROB size progress through the trace in step under the
// batch's committed-instruction round-robin, which is what keeps the shared
// trace region hot for every member).
type groupKey struct {
	benchmark string
	robSize   int
}

// planGroups partitions the pending jobs — already in ascending full-order
// index — into execution groups. Pairs sharing a groupKey batch together up
// to batchGroupCap per group; a pair with no partner is a singleton group.
// Grouping only changes which worker simulates which pair and how: per-pair
// results, checkpoint entries and progress events are emitted exactly as
// before, so reports are byte-identical whatever the group widths.
func planGroups(pending []sweepJob) []sweepGroup {
	open := make(map[groupKey]int) // key -> index of its open group
	var groups []sweepGroup
	for _, j := range pending {
		k := groupKey{benchmark: j.benchmark, robSize: j.cfg.ROBSize}
		gi, ok := open[k]
		if !ok || len(groups[gi].jobs) >= batchGroupCap {
			groups = append(groups, sweepGroup{benchmark: j.benchmark})
			gi = len(groups) - 1
			open[k] = gi
		}
		groups[gi].jobs = append(groups[gi].jobs, j)
	}
	return groups
}

// sweepResult is one finished pair, as delivered to runSweep's collector.
type sweepResult struct {
	job sweepJob
	run stats.Run
	err error
}

// effectiveConfig applies the sweep-wide instruction bound to a job's
// configuration.
func effectiveConfig(j sweepJob, opts Options) pipeline.Config {
	cfg := j.cfg
	if opts.MaxInsts > 0 {
		cfg.MaxInsts = opts.MaxInsts
	}
	return cfg
}

// runGroup executes one group's pairs as one batch over the benchmark's
// shared trace and TraceMeta, and returns a result per pair, in job order.
// Members are validated first, so an invalid configuration fails only its
// own pair while the rest of the group still runs.
func runGroup(g sweepGroup, traces *traceCache, opts Options) []sweepResult {
	out := make([]sweepResult, len(g.jobs))
	for i := range out {
		out[i].job = g.jobs[i]
	}
	// Release counts finished jobs — including failed ones — so a benchmark's
	// trace is always dropped when its last job ends.
	defer func() {
		for range g.jobs {
			traces.release(g.benchmark)
		}
	}()
	tr, meta, err := traces.get(g.benchmark)
	if err != nil {
		for i := range out {
			out[i].err = err
		}
		return out
	}
	var cfgs []pipeline.Config
	var members []int // out index of each batch member
	for i, j := range g.jobs {
		cfg := effectiveConfig(j, opts)
		if out[i].err = cfg.Validate(); out[i].err == nil {
			cfgs = append(cfgs, cfg)
			members = append(members, i)
		}
	}
	if len(cfgs) == 0 {
		return out
	}
	b, err := pipeline.NewBatchWithMeta(tr, meta, cfgs)
	if err != nil {
		for _, i := range members {
			out[i].err = err
		}
		return out
	}
	runs, errs := b.Run()
	for k, i := range members {
		out[i].run, out[i].err = runs[k], errs[k]
	}
	return out
}
