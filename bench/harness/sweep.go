package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/stats"
	"repro/internal/workload"
)

// specFunc draws job i of a sweep workload's endless job list from a seed.
type specFunc func(seed uint64, sc scale, i int) simapi.JobSpec

// fixedSeed draws the inputs that stay the same whatever the run's seed: the
// warm-up jobs of every sweep set-up and service-warm's spec set.
const fixedSeed = 0

// sweepInstance runs a sweep workload: one researcher calling
// experiments.Sweep job after job, each with Parallelism 2, and rendering
// the report in all four formats.
type sweepInstance struct {
	e          env
	spec       specFunc
	checkpoint bool // write each job's pairs to a fresh JSONL checkpoint
}

func setupSweep(spec specFunc, checkpoint bool) func(context.Context, env) (instance, error) {
	return func(ctx context.Context, e env) (instance, error) {
		s := &sweepInstance{e: e, spec: spec, checkpoint: checkpoint}
		// Set-up ends with warm-up jobs, so that the first timed jobs do not
		// pay for the heap growing and the code paging in. They come from a
		// fixed seed's list: benchmarks differ in size, and set-up should do
		// the same work whatever the run's seed.
		for k := range e.sc.warmups {
			if o := s.run(ctx, -1-k, spec(fixedSeed, e.sc, k), nil); o.err != nil {
				return nil, fmt.Errorf("warm-up job %d: %w", k, o.err)
			}
		}
		return s, nil
	}
}

func (s *sweepInstance) runJob(ctx context.Context, i int, tr *tracer) outcome {
	return s.run(ctx, i, s.spec(s.e.seed, s.e.sc, i), tr)
}

func (s *sweepInstance) run(ctx context.Context, i int, spec simapi.JobSpec, tr *tracer) outcome {
	o := outcome{job: i, spec: spec, start: time.Now()}
	root := tr.id()
	opts := spec.Options()
	opts.Parallelism = simParallelism
	if s.checkpoint {
		opts.Checkpoint = filepath.Join(s.e.dir, fmt.Sprintf("job%d.jsonl", i))
	}
	id := tr.id()
	rep, err := experiments.Sweep(ctx, opts)
	swept := time.Now()
	tr.record(id, root, "experiments.sweep", i, o.start, swept)
	if err == nil {
		id = tr.id()
		o.csv, err = renderAll(rep)
		tr.record(id, root, "experiments.render", i, swept, time.Now())
	}
	o.end = time.Now()
	tr.record(root, 0, "harness.job", i, o.start, o.end)
	if s.checkpoint {
		if st, serr := os.Stat(opts.Checkpoint); serr == nil {
			o.ckptBytes = st.Size()
		}
		os.Remove(opts.Checkpoint)
	}
	o.rep, o.err = rep, err
	if err == nil {
		rows, _ := rep.Rows.([]experiments.SweepRow)
		for _, r := range rows {
			o.insts += r.Committed
		}
	}
	return o
}

// renderAll renders a report in every format and returns the CSV.
func renderAll(rep *experiments.Report) (string, error) {
	var out string
	for _, f := range stats.Formats() {
		text, err := rep.Render(f)
		if err != nil {
			return "", fmt.Errorf("rendering %s: %w", f, err)
		}
		if f == stats.FormatCSV {
			out = text
		}
	}
	return out, nil
}

// verify checks every sweep's shape and, with the functional emulator, that
// every row committed exactly its benchmark program's instruction count.
func (s *sweepInstance) verify(_ context.Context, outs []outcome) {
	counts := make(map[string]uint64)
	for k := range outs {
		if outs[k].err == nil {
			outs[k].err = s.check(&outs[k], counts)
		}
	}
}

func (s *sweepInstance) check(o *outcome, counts map[string]uint64) error {
	opts := o.spec.Options()
	kinds := len(opts.Configs)
	if kinds == 0 {
		kinds = len(core.Kinds())
	}
	want := len(opts.Benchmarks) * kinds * len(opts.Windows)
	rows, ok := o.rep.Rows.([]experiments.SweepRow)
	if !ok || len(rows) != want {
		return fmt.Errorf("job %d: %d rows, want %d", o.job, len(rows), want)
	}
	if sum := o.rep.Summary; sum.Failed != 0 || sum.Executed != want {
		return fmt.Errorf("job %d: executed %d of %d pairs, %d failed", o.job, sum.Executed, want, sum.Failed)
	}
	recs, err := csv.NewReader(strings.NewReader(o.csv)).ReadAll()
	if err != nil || len(recs) != want+1 {
		return fmt.Errorf("job %d: CSV has %d records, want %d (%v)", o.job, len(recs), want+1, err)
	}
	if s.checkpoint && o.ckptBytes == 0 {
		return fmt.Errorf("job %d: empty checkpoint", o.job)
	}
	for _, r := range rows {
		n, err := emuInsts(r.Benchmark, opts.Iterations, counts)
		if err != nil {
			return err
		}
		if r.Committed != n {
			return fmt.Errorf("job %d: %s/%s@%d committed %d, the emulator executes %d",
				o.job, r.Benchmark, r.Config, r.Window, r.Committed, n)
		}
	}
	return nil
}

// emuInsts runs the benchmark's program on the functional emulator and
// returns its dynamic instruction count, memoized per (benchmark, length).
func emuInsts(bench string, iters int, memo map[string]uint64) (uint64, error) {
	key := fmt.Sprintf("%s@%d", bench, iters)
	if n, ok := memo[key]; ok {
		return n, nil
	}
	p, err := workload.Generate(bench, workload.Options{Iterations: iters})
	if err != nil {
		return 0, err
	}
	n, err := emu.New(p).Run(math.MaxUint64)
	if err != nil {
		return 0, fmt.Errorf("emulating %s: %w", key, err)
	}
	memo[key] = n
	return n, nil
}

func (s *sweepInstance) decompSpecs() []simapi.JobSpec {
	return s.specs(s.e.sc.decompJobs)
}

func (s *sweepInstance) specs(n int) []simapi.JobSpec {
	out := make([]simapi.JobSpec, n)
	for i := range out {
		out[i] = s.spec(s.e.seed, s.e.sc, i)
	}
	return out
}

// inputs hashes the part of the job list both phases of a traced run draw
// from.
func (s *sweepInstance) inputs() (string, string) {
	return inputsHash(s.specs(2*s.e.jobs), nil), traceSetHash(nil)
}

func (s *sweepInstance) close() error { return nil }
