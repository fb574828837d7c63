package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	// workDir holds the run's set-up directories; the run removes what it
	// creates there.
	workDir string
	// spans, when set, is where a traced run writes its spans.
	spans string
}

// phaseLimit bounds one measured phase on a host much slower than the
// reference: after it, the phase starts no further jobs.
func (c runConfig) phaseLimit() time.Duration {
	return time.Duration((2*c.seconds + 10) * float64(time.Second))
}

// runDoc is the results document of one run: what it measured, on what, and
// whether every output was correct.
type runDoc struct {
	Workload   string                 `json:"workload"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailFrac   float64                `json:"fail_frac"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Jobs, TailPct and TailBeyond describe the job-latency sample of the
	// untraced phase: its size, the workload's tail percentile, and how many
	// jobs lie beyond that percentile.
	Jobs       int     `json:"jobs"`
	TailPct    float64 `json:"tail_pct"`
	TailBeyond int     `json:"tail_beyond"`
	// Traced runs only: self time per layer, in seconds, over the traced
	// phase and over the decomposition; and the jobs decomposed layer by
	// layer.
	SelfTimeS       map[string]float64 `json:"self_time_s,omitempty"`
	DecompSelfTimeS map[string]float64 `json:"decomp_self_time_s,omitempty"`
	Decomposed      []string           `json:"decomposed,omitempty"`
	// Errors holds the first few failures, for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

// execute sets the workload up several times, keeps the last instance, runs
// one phase of its job list with tracing off and, for a traced run, a phase
// of half that length with tracing on followed by the layer decomposition.
// Progress goes to log.
func execute(ctx context.Context, cfg runConfig, log io.Writer) (*runDoc, error) {
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workDir, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	n := def.jobs(cfg.seconds)
	var inst instance
	var setups []float64
	var dir string
	for rep := range cfg.sc.setupReps {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			// Return the closed instance's memory before the next set-up,
			// so that host.peak_rss_mb is one instance's, not two.
			debug.FreeOSMemory()
		}
		dir = filepath.Join(work, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		inst, err = def.setup(ctx, env{dir: dir, seed: cfg.seed, sc: cfg.sc, jobs: n})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fmt.Fprintf(log, "# set-up %d: %.3f s\n", rep+1, setups[rep])
	}
	defer inst.close()

	tail := tailChoice(n)
	doc := &runDoc{Workload: def.name, Seconds: cfg.seconds, Trace: cfg.trace,
		Provenance: newProvenance(cfg.seed, dir), TailPct: tail * 100}
	doc.Provenance.InputsHash, doc.Provenance.TraceSetHash = inst.inputs()

	h0 := sampleHost()
	rss := startRSS()
	outs, elapsed := measure(ctx, inst, def.clients, 0, n, cfg.phaseLimit(), nil)
	rssMB := rss.finish()
	h1 := sampleHost()
	inst.verify(ctx, outs)
	e2e := endToEndValues(outs, elapsed, tail)
	e2e["setup_s"] = median(setups)
	e2e["rss_p50_mb"] = percentile(rssMB, 0.5)
	doc.Jobs, doc.TailBeyond = len(outs), beyond(len(outs), tail)
	doc.tally(outs)
	fmt.Fprintf(log, "# %d of %d jobs in %.3f s, %d failed; tail p%g has %d jobs beyond it\n",
		len(outs), n, elapsed.Seconds(), doc.Failed, doc.TailPct, doc.TailBeyond)

	values := e2e
	specs := endToEnd
	if cfg.trace {
		values, err = traced(ctx, cfg, def, inst, doc, n, e2e["jobs_per_s"], log)
		if err != nil {
			return nil, err
		}
		hostMetrics(h0, h1, values)
		specs = perLayer
	}
	if doc.Metrics, err = collect(specs, values); err != nil {
		return nil, err
	}
	doc.FailFrac = ratio(float64(doc.Failed), float64(doc.Attempted))
	doc.Correct = doc.Failed == 0 && doc.Attempted > 0
	return doc, nil
}

// traced runs the traced phase and the decomposition and returns the layer
// metrics (all but the host layer's, which the untraced phase measures).
func traced(ctx context.Context, cfg runConfig, def workloadDef, inst instance, doc *runDoc,
	n int, untracedJobsPerS float64, log io.Writer) (map[string]float64, error) {
	values := make(map[string]float64)
	svc, _ := inst.(interface {
		snapshot(context.Context) (serverSnap, error)
	})
	var before, after serverSnap
	var err error
	if svc != nil {
		if before, err = svc.snapshot(ctx); err != nil {
			return nil, err
		}
	}
	// The traced phase follows the untraced one in the job list. Half as
	// many jobs, in whole input cycles, give the same job mix and keep a
	// traced run inside the time a run may take on a slow host.
	tr := newTracer()
	outs, elapsed := measure(ctx, inst, def.clients, n, def.jobs(cfg.seconds/2), cfg.phaseLimit(), tr)
	if svc != nil {
		if after, err = svc.snapshot(ctx); err != nil {
			return nil, err
		}
	}
	phase := tr.snapshot()
	inst.verify(ctx, outs)
	doc.tally(outs)
	jobsPerS := ratio(float64(okJobs(outs)), elapsed.Seconds())
	values["trace.overhead_pct"] = ratio(untracedJobsPerS-jobsPerS, untracedJobsPerS) * 100
	fmt.Fprintf(log, "# traced: %d jobs in %.3f s (%.4g jobs/s untraced, %.4g traced)\n",
		len(outs), elapsed.Seconds(), untracedJobsPerS, jobsPerS)

	// A sweep workload crosses no service layer: with no outcomes and no
	// server readings, every service metric reads 0.
	if svc != nil {
		serviceMetrics(outs, before, after, values)
	} else {
		serviceMetrics(nil, serverSnap{}, serverSnap{}, values)
	}
	var ckpt int64
	for _, o := range outs {
		ckpt += o.ckptBytes
	}
	values["experiments.checkpoint_bytes"] = float64(ckpt)

	doc.SelfTimeS = layerSeconds(phase)

	specs := inst.decompSpecs()
	for _, s := range specs {
		doc.Decomposed = append(doc.Decomposed, s.String())
	}
	fmt.Fprintf(log, "# decomposing %d jobs at Parallelism 1:\n#   %s\n", len(specs), strings.Join(doc.Decomposed, "\n#   "))
	dec := decompose(ctx, specs, tr)
	dec.metrics(values)
	doc.Attempted += dec.jobs
	doc.Failed += len(dec.errs)
	for _, e := range dec.errs {
		doc.addError(e)
	}
	fmt.Fprintf(log, "# decomposition: layers %.3f s of experiments.sweep_s %.3f s; overhead %.3f s\n",
		dec.engine.Seconds(), dec.sweep.Seconds(), (dec.sweep - dec.engine).Seconds())
	doc.DecompSelfTimeS = layerSeconds(tr.snapshot()[len(phase):])
	if cfg.spans != "" {
		if err := tr.writeJSONL(cfg.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# spans: %s\n", cfg.spans)
	}
	return values, nil
}

// endToEndValues computes the job metrics of one phase. A failed job counts
// as slower than any finished one.
func endToEndValues(outs []outcome, elapsed time.Duration, tail float64) map[string]float64 {
	var lat []float64
	var insts uint64
	for _, o := range outs {
		if o.err != nil {
			lat = append(lat, maxLatency)
			continue
		}
		lat = append(lat, ms(o.latency()))
		insts += o.insts
	}
	return map[string]float64{
		"sim_minsts_per_s": ratio(float64(insts)/1e6, elapsed.Seconds()),
		"jobs_per_s":       ratio(float64(okJobs(outs)), elapsed.Seconds()),
		"job_p50_ms":       percentile(lat, 0.5),
		"job_tail_ms":      percentile(lat, tail),
	}
}

// maxLatency stands for the latency of a failed job: it misses any limit.
const maxLatency = 1e12

func okJobs(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n++
		}
	}
	return n
}

// tally adds a phase's jobs to the attempted and failed counts.
func (d *runDoc) tally(outs []outcome) {
	d.Attempted += len(outs)
	for _, o := range outs {
		if o.err != nil {
			d.Failed++
			d.addError(o.err)
		}
	}
}

func (d *runDoc) addError(err error) {
	if len(d.Errors) < 5 {
		d.Errors = append(d.Errors, err.Error())
	}
}

// printMetrics writes the metrics, with their units, in declaration order.
func printMetrics(w io.Writer, doc *runDoc) {
	specs := endToEnd
	if doc.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		v := doc.Metrics[m.Name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
	for _, part := range []struct {
		name  string
		times map[string]float64
	}{{"traced phase", doc.SelfTimeS}, {"decomposition", doc.DecompSelfTimeS}} {
		layers := make([]string, 0, len(part.times))
		for l := range part.times {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "self time, %s: %-16s %14.6g s\n", part.name, l, part.times[l])
		}
	}
	fmt.Fprintf(w, "# %s seed %d: correct=%v attempted=%d failed=%d fail_frac=%g\n",
		doc.Workload, doc.Provenance.Seed, doc.Correct, doc.Attempted, doc.Failed, doc.FailFrac)
	for _, e := range doc.Errors {
		fmt.Fprintf(w, "# error: %s\n", e)
	}
}
