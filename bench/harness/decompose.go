package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/simapi"
	"repro/internal/stats"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// decomposition times each layer a job's pairs pass through, by calling the
// layers one at a time at Parallelism 1, next to experiments' own run of the
// same job at Parallelism 1. For every program it takes the engine's path —
// generate and record, or decode a trace job's recorded trace; pre-decode
// when a window group is batched; then the batched or the scalar cycle loop
// — and also times the other of the two cycle loops, which the engine skips
// for that group. Both loops must agree with each other and with the
// report's rows.
type decomposition struct {
	jobs int
	errs []error

	generate, record, decode, meta, batch, scalar time.Duration
	sweep, render                                 time.Duration
	// engine is the part of the above on the path experiments takes; the
	// rest of sweep is the engine's own overhead.
	engine time.Duration

	recordInsts, batchInsts, scalarInsts uint64
	decodeBytes                          int64

	// Exact simulated counts of the engine's path, and its allocations.
	cycles, insts, flushes, reexec, mispred uint64
	engineSim                               time.Duration
	mallocs                                 uint64

	batchedPairs, totalPairs int
}

func (d *decomposition) fail(err error) { d.errs = append(d.errs, err) }

// timed runs fn inside a span and returns how long it took.
func timed(tr *tracer, parent int64, name string, job int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	tr.record(tr.id(), parent, name, job, start, end)
	return end.Sub(start)
}

func decompose(ctx context.Context, specs []simapi.JobSpec, tr *tracer) *decomposition {
	d := &decomposition{}
	for i, spec := range specs {
		root := tr.id()
		start := time.Now()
		if err := d.job(ctx, i, spec, tr, root); err != nil {
			d.fail(fmt.Errorf("decomposing job %d (%s): %w", i, spec, err))
		}
		d.jobs++
		tr.record(root, 0, "harness.decompose", i, start, time.Now())
	}
	return d
}

func (d *decomposition) job(ctx context.Context, i int, spec simapi.JobSpec, tr *tracer, root int64) error {
	exp, err := experiments.Lookup(spec.Experiment)
	if err != nil {
		return err
	}
	opts := spec.Options()
	opts.Parallelism = 1
	var rep *experiments.Report
	d.sweep += timed(tr, root, "experiments.sweep", i, func() { rep, err = exp.Run(ctx, opts) })
	if err != nil {
		return err
	}
	d.render += timed(tr, root, "experiments.render", i, func() { _, err = renderAll(rep) })
	if err != nil {
		return err
	}
	rows, ok := rep.Rows.([]experiments.SweepRow)
	if !ok {
		return fmt.Errorf("report rows are %T", rep.Rows)
	}
	d.batchedPairs += rep.Summary.BatchedPairs
	d.totalPairs += rep.Summary.Total

	kinds := core.Kinds()
	if len(opts.Configs) > 0 {
		kinds = kinds[:0:0]
		for _, n := range opts.Configs {
			k, err := core.KindByName(n)
			if err != nil {
				return err
			}
			kinds = append(kinds, k)
		}
	}
	windows := opts.Windows
	if len(windows) == 0 {
		windows = []int{128}
	}
	for _, name := range opts.Benchmarks {
		trace, err := d.source(spec.Experiment, name, opts.Iterations, tr, root, i)
		if err != nil {
			return err
		}
		if err := d.simulate(name, trace, kinds, windows, opts.MaxInsts, rows, tr, root, i); err != nil {
			return err
		}
	}
	return nil
}

// source produces one program's trace the way the engine does, timing each
// stage.
func (d *decomposition) source(experiment, name string, iters int, tr *tracer, parent int64, job int) (*emu.Trace, error) {
	if experiment == "trace" {
		return d.decodeFile(name, tr, parent, job)
	}
	var prog *program.Program
	var err error
	wopts := workload.Options{Iterations: iters}
	t := timed(tr, parent, "workload.generate", job, func() {
		if experiment != "scenario" {
			prog, err = workload.Generate(name, wopts)
		} else if s, ok := workload.StressScenarioByName(name); ok {
			prog, err = workload.GenerateScenario(s, wopts)
		} else {
			err = fmt.Errorf("no stress scenario %s", name)
		}
	})
	if err != nil {
		return nil, err
	}
	d.generate += t
	d.engine += t

	var trace *emu.Trace
	t = timed(tr, parent, "emu.record", job, func() { trace, err = emu.RecordTrace(prog, 0) })
	if err != nil {
		return nil, err
	}
	d.record += t
	d.engine += t
	d.recordInsts += trace.Len()
	return trace, nil
}

// decodeFile decodes a trace job's recorded trace, which is the engine's
// source for it.
func (d *decomposition) decodeFile(ref string, tr *tracer, parent int64, job int) (*emu.Trace, error) {
	entries, err := traceio.LoadDir(experiments.DefaultTraceDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.RefName() != ref {
			continue
		}
		st, err := os.Stat(e.Path)
		if err != nil {
			return nil, err
		}
		var trace *emu.Trace
		t := timed(tr, parent, "traceio.decode", job, func() { trace, _, err = traceio.ReadFile(e.Path) })
		if err != nil {
			return nil, err
		}
		d.decode += t
		d.engine += t
		d.decodeBytes += st.Size()
		return trace, nil
	}
	return nil, fmt.Errorf("no trace %s under %s", ref, experiments.DefaultTraceDir)
}

// simulate runs every window group of one program through both cycle loops
// and checks them against each other and against the report's rows.
func (d *decomposition) simulate(name string, trace *emu.Trace, kinds []core.ConfigKind, windows []int, maxInsts uint64,
	rows []experiments.SweepRow, tr *tracer, parent int64, job int) error {
	var meta *pipeline.TraceMeta
	var err error
	t := timed(tr, parent, "pipeline.meta", job, func() { meta, err = pipeline.NewTraceMeta(trace) })
	if err != nil {
		return err
	}
	d.meta += t
	batched := len(kinds) > 1 // the engine pre-decodes and batches groups of two or more
	if batched {
		d.engine += t
	}
	for _, w := range windows {
		cfgs := make([]pipeline.Config, len(kinds))
		for k, kind := range kinds {
			cfgs[k] = core.ConfigFor(kind, w)
			if maxInsts > 0 {
				cfgs[k].MaxInsts = maxInsts
			}
		}
		var bruns []stats.Run
		var berrs []error
		m0 := mallocs()
		tb := timed(tr, parent, "pipeline.batch", job, func() {
			var b *pipeline.Batch
			if b, err = pipeline.NewBatchWithMeta(trace, meta, cfgs); err == nil {
				bruns, berrs = b.Run()
			}
		})
		if err != nil {
			return err
		}
		m1 := mallocs()
		sruns := make([]stats.Run, len(cfgs))
		ts := timed(tr, parent, "pipeline.scalar", job, func() {
			for k, c := range cfgs {
				var sim *pipeline.Simulator
				if sim, err = pipeline.NewFromTrace(trace, c); err != nil {
					return
				}
				if sruns[k], err = sim.Run(); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		m2 := mallocs()
		d.batch += tb
		d.scalar += ts
		if batched {
			d.engine += tb
			d.engineSim += tb
			d.mallocs += m1 - m0
		} else {
			d.engine += ts
			d.engineSim += ts
			d.mallocs += m2 - m1
		}
		for k, run := range sruns {
			if berrs[k] != nil {
				return berrs[k]
			}
			if !reflect.DeepEqual(bruns[k], run) {
				return fmt.Errorf("%s/%s@%d: batched and scalar runs differ", name, kinds[k], w)
			}
			if err := matchRow(rows, name, kinds[k].String(), w, run); err != nil {
				return err
			}
			d.batchInsts += bruns[k].Committed
			d.scalarInsts += run.Committed
			d.cycles += run.Cycles
			d.insts += run.Committed
			d.flushes += run.Flushes
			d.reexec += run.Reexecutions
			d.mispred += run.BypassMispredictions
		}
	}
	return nil
}

// matchRow checks one decomposed run against the report's row for it.
func matchRow(rows []experiments.SweepRow, bench, config string, window int, run stats.Run) error {
	for _, r := range rows {
		if r.Benchmark != bench || r.Config != config || r.Window != window {
			continue
		}
		if r.Cycles != run.Cycles || r.Committed != run.Committed || r.Flushes != run.Flushes ||
			r.Reexecutions != run.Reexecutions || r.Bypassed != run.BypassedLoads || r.Delayed != run.DelayedLoads {
			return fmt.Errorf("%s/%s@%d: decomposed run differs from the report row", bench, config, window)
		}
		return nil
	}
	return fmt.Errorf("%s/%s@%d: no report row", bench, config, window)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// metrics adds the decomposition's layer metrics.
func (d *decomposition) metrics(into map[string]float64) {
	into["workload.generate_s"] = d.generate.Seconds()
	into["emu.record_s"] = d.record.Seconds()
	into["emu.insts"] = float64(d.recordInsts)
	into["emu.minsts_per_s"] = mrate(d.recordInsts, d.record)
	into["traceio.decode_s"] = d.decode.Seconds()
	into["traceio.decode_mb_per_s"] = ratio(float64(d.decodeBytes)/1e6, d.decode.Seconds())
	into["traceio.bytes"] = float64(d.decodeBytes)
	into["pipeline.meta_s"] = d.meta.Seconds()
	into["pipeline.batch_s"] = d.batch.Seconds()
	into["pipeline.batch_minsts_per_s"] = mrate(d.batchInsts, d.batch)
	into["pipeline.scalar_s"] = d.scalar.Seconds()
	into["pipeline.scalar_minsts_per_s"] = mrate(d.scalarInsts, d.scalar)
	into["pipeline.ns_per_cycle"] = ratio(float64(d.engineSim.Nanoseconds()), float64(d.cycles))
	into["pipeline.allocs_per_kinst"] = ratio(float64(d.mallocs), float64(d.insts)/1000)
	into["pipeline.sim_cycles"] = float64(d.cycles)
	into["pipeline.sim_insts"] = float64(d.insts)
	into["pipeline.flushes"] = float64(d.flushes)
	into["svw.reexecutions"] = float64(d.reexec)
	into["bypass.mispredictions"] = float64(d.mispred)
	into["experiments.sweep_s"] = d.sweep.Seconds()
	into["experiments.overhead_s"] = (d.sweep - d.engine).Seconds()
	into["experiments.render_s"] = d.render.Seconds()
	into["experiments.batched_pair_frac"] = ratio(float64(d.batchedPairs), float64(d.totalPairs))
}

// mrate is millions of n per second of d.
func mrate(n uint64, d time.Duration) float64 { return ratio(float64(n)/1e6, d.Seconds()) }
