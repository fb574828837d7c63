// Package experiments is the registry-driven experiment subsystem: it
// regenerates every table and figure of the paper's evaluation (Section 4) —
// Table 5 (communication behaviour and prediction accuracy), Figure 2
// (performance at a 128-entry window), Figure 3 (performance at a 256-entry
// window), Figure 4 (data-cache read bandwidth), and Figure 5
// (bypassing-predictor sensitivity to capacity and history length) — plus a
// free-form sweep over arbitrary configuration × window × benchmark grids,
// a scenario experiment for declarative adversarial workloads, a corpus
// experiment replaying the committed pathological scenarios under
// bench/corpus/, and a trace experiment replaying the recorded traces under
// bench/traces/. The four grid experiments differ only in where their
// workloads come from (a source) and the identity columns of their rows;
// the six paper experiments differ only in their configurations and in how
// a benchmark's runs become a row and a suite's rows a mean.
//
// Every experiment implements the Experiment interface and is registered by
// name (table5, fig2, fig3, fig4, fig5cap, fig5hist, sweep, scenario,
// corpus, trace); Lookup, Names and All expose the registry to the CLI tools.
// A run produces a Report —
// one set of structured rows renderable as paper-style text, Markdown, JSON,
// or CSV — whose Rows field holds the experiment's typed rows.
//
// Simulations are farmed out to a worker pool by the sweep engine
// (one simulation per benchmark/configuration pair), which also provides
// deterministic job ordering, per-shard job selection (Options.Shards /
// Options.ShardIndex), JSONL checkpointing so interrupted sweeps resume
// without re-running finished pairs (Options.Checkpoint), and context-based
// cancellation.
package experiments

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Options controls an experiment.
type Options struct {
	// Iterations is the synthetic workload length per benchmark (0 = the
	// workload default, a few hundred thousand dynamic instructions).
	Iterations int
	// Benchmarks restricts the experiment to a subset of benchmark names
	// (nil = the experiment's own default set); a repeated name counts once.
	Benchmarks []string
	// Parallelism is the number of concurrent simulations (0 = GOMAXPROCS).
	Parallelism int

	// Shards splits the experiment's deterministic job list across
	// independent processes: with Shards > 1, this process runs only the jobs
	// whose position i satisfies i % Shards == ShardIndex (0-based).
	// Shards <= 1 runs everything.
	Shards     int
	ShardIndex int

	// Pairs restricts execution to the listed positions of the
	// deterministic pair order (nil = no restriction); a position outside
	// the grid is an error. Unlisted pairs are skipped exactly like other
	// shards' pairs under Shards. A remote worker runs a leased shard task
	// this way: the task lists the positions it still owes.
	Pairs []int

	// Executor, if set, replaces the local worker pool: the engine plans the
	// sweep (resume, shard and pair filtering, progress events, the result
	// store) and then hands the pending pairs to the executor instead of
	// simulating them in-process. The simulation coordinator uses this seam
	// to fan runs of pending pairs out to remote workers while keeping
	// reports byte-identical to a local run.
	Executor Executor

	// MaxInsts bounds each simulation to N committed instructions
	// (0 = unbounded), and each program's recording to N dynamic
	// instructions, as pipeline.New does. It is part of a run's identity in
	// the result store: a resume under a different bound re-runs rather than
	// serving stale rows.
	MaxInsts uint64

	// Checkpoint names a JSONL file recording every finished
	// (benchmark, configuration) run. Pairs already in the file are loaded
	// instead of re-run, so an interrupted experiment resumes where it
	// stopped; shards pointed at per-shard files can be concatenated and
	// re-read to merge a distributed sweep. Entries are scoped by experiment
	// and by Iterations, so one file can be shared safely — a resume under
	// different settings re-runs rather than serving stale rows.
	Checkpoint string

	// Store overrides the checkpoint file with an arbitrary ResultStore:
	// finished pairs are appended to it, and the run asks it once, with the
	// pair keys of its whole grid, for the entries to resume instead of
	// re-run. When set, Checkpoint is ignored. The caller owns the store's
	// lifecycle (the engine never closes an injected store), so one store
	// can serve many runs — the simulation server shares one
	// content-addressed cache across every job it executes.
	Store ResultStore

	// Progress, if set, observes the run: the job plan once it is decided,
	// then every executed pair as it finishes. The simulation server uses it
	// to stream per-pair progress events to HTTP clients.
	Progress ProgressSink

	// Configs and Windows define the grid of the sweep, scenario, corpus and
	// trace experiments: configuration kind names (see core.Kinds; nil = all
	// five) and instruction-window sizes (nil = 128), each kept at its first
	// occurrence. The table and figure experiments ignore them.
	Configs []string
	Windows []int

	// CorpusDir points the corpus experiment at a committed-corpus
	// directory of scenario entries ("" = DefaultCorpusDir, resolved
	// relative to the process working directory). Other experiments ignore
	// it. It is deliberately absent from the job-spec wire format: a
	// distributed corpus run requires every node to read the same corpus
	// revision from its own checkout.
	CorpusDir string

	// TraceDir points the trace experiment at a directory of recorded trace
	// entries — *.nsqt files with their provenance manifests, as written by
	// cmd/nosq-trace ("" = DefaultTraceDir, resolved relative to the process
	// working directory). Other experiments ignore it. Like CorpusDir it is
	// deliberately absent from the job-spec wire format: a distributed trace
	// run requires every node to read the same trace corpus from its own
	// checkout, and the experiment scope's content hash over every trace
	// file guarantees the nodes agree on what they replayed.
	TraceDir string

	// Scenario gives the scenario experiment an inline workload spec to run
	// instead of the built-in stress suite. The scenario's canonicalized
	// content hash becomes part of the experiment scope — and therefore of
	// every checkpoint and result-cache key — so two scenarios that differ in
	// any knob can never serve each other's cached measurements. Other
	// experiments ignore it.
	Scenario *workload.Scenario

	// afterCheckpoint, if set, is called after the n-th checkpoint append
	// (1-based). Test hook: lets the interrupted-resume test cancel its
	// context at a deterministic point instead of racing a timer.
	afterCheckpoint func(n int)
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// suiteOf returns the suite a benchmark belongs to.
func suiteOf(benchmark string) workload.Suite {
	p, err := workload.ProfileByName(benchmark)
	if err != nil {
		return workload.SPECint
	}
	return p.Suite
}

// suiteOrder is the order in which the paper presents its suites.
var suiteOrder = []workload.Suite{workload.MediaBench, workload.SPECint, workload.SPECfp}

// defaultBenchmarks resolves the benchmark list for an experiment, keeping
// only the first of a repeated name.
func defaultBenchmarks(opts Options, selected bool) []string {
	if len(opts.Benchmarks) > 0 {
		return dedup(opts.Benchmarks)
	}
	if selected {
		return core.SelectedBenchmarks()
	}
	return core.Benchmarks()
}

// kindConfigs builds the pipeline configurations for a set of configuration
// kinds at a given window size.
func kindConfigs(kinds []core.ConfigKind, window int) map[string]pipeline.Config {
	out := make(map[string]pipeline.Config, len(kinds))
	for _, k := range kinds {
		out[k.String()] = core.ConfigFor(k, window)
	}
	return out
}
