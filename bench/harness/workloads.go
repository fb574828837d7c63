package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
)

// simParallelism is the number of simulations the load runs at once, on
// every machine: two sweep worker goroutines, or two fleet workers of one
// simulation each. The service workloads use two closed-loop clients.
const simParallelism = 2

// singleWidth is the number of benchmarks in one sweep-single job: two
// width-1 groups, one per sweep worker.
const singleWidth = 2

// warmSpecs is the number of distinct specs service-warm re-submits: three
// blocks of the service job mix.
const warmSpecs = 24

// scale sizes every workload's inputs. defaultScale is the benchmark; the
// tests run the same code at a tiny scale.
type scale struct {
	setupReps int // set-ups per run; setup_s is their median
	warmups   int // warm-up jobs that end a sweep or fleet-cold set-up

	gridIters   [2]int // sweep-grid iterations per job
	singleIters [2]int // sweep-single iterations per job

	sweepIters    [2]int // service sweep jobs: iterations, never repeated
	stressIters   [2]int // service stress jobs: iterations, never repeated per scenario
	traceMaxInsts [2]int // service trace jobs: MaxInsts, never repeated
	traceIters    int    // iterations of the two recorded programs
	traceInsts    int    // instructions recorded of each, at most

	decompJobs int // jobs a traced run decomposes layer by layer
}

var defaultScale = scale{
	setupReps:     3,
	warmups:       6,
	gridIters:     [2]int{150, 300},
	singleIters:   [2]int{400, 650},
	sweepIters:    [2]int{200, 600},
	stressIters:   [2]int{100, 250},
	traceMaxInsts: [2]int{20000, 60000},
	traceIters:    2000,
	traceInsts:    80000,
	decompJobs:    8,
}

// workloadDef is one workload: how many closed-loop clients drive it, how
// many jobs make one cycle of its input mix, how many jobs a second the
// reference host (2 vCPUs of a shared Xeon) finishes, and how to set up one
// instance.
type workloadDef struct {
	name    string
	clients int
	cycle   int
	rate    float64
	setup   func(ctx context.Context, e env) (instance, error)
}

var workloads = []workloadDef{
	// One cycle sweeps every benchmark once.
	{name: "sweep-grid", clients: 1, cycle: len(core.Benchmarks()), rate: 13.1, setup: setupSweep(gridSpec, true)},
	{name: "sweep-single", clients: 1, cycle: (len(core.Benchmarks()) + singleWidth - 1) / singleWidth, rate: 13.2,
		setup: setupSweep(singleSpec, false)},
	// One cycle is one block of the service job mix (see serviceSpecs).
	{name: "fleet-cold", clients: 2, cycle: 8, rate: 8, setup: setupFleet},
	// One cycle re-submits every spec once.
	{name: "service-warm", clients: 2, cycle: warmSpecs, rate: 880, setup: setupWarm},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// jobs is the length of one measured phase's job list: the whole number of
// input cycles, at least one, closest to what the reference host finishes in
// the given seconds. Every run of a workload at the same seconds does the
// same amount of work over the same input mix, so its percentiles, memory
// and job mix do not depend on how fast the host happened to be.
func (w workloadDef) jobs(seconds float64) int {
	return w.cycle * max(1, int(math.Round(seconds*w.rate/float64(w.cycle))))
}

// env is what a set-up is given: a fresh directory it owns, the seed, the
// scale, and the number of jobs one phase runs.
type env struct {
	dir  string
	seed uint64
	sc   scale
	jobs int
}

// instance is one set-up workload, ready to run jobs.
type instance interface {
	// runJob runs job i of the workload's job list and times it.
	runJob(ctx context.Context, i int, tr *tracer) outcome
	// verify checks finished jobs' outputs after timing, setting err on
	// every wrong one, and fills in insts where it is only known then.
	verify(ctx context.Context, outs []outcome)
	// decompSpecs lists the jobs a traced run decomposes layer by layer.
	decompSpecs() []simapi.JobSpec
	// inputs identifies the generated inputs: the job list and trace set.
	inputs() (jobsHash, traceHash string)
	close() error
}

// outcome is one finished (or failed) job.
type outcome struct {
	job        int
	spec       simapi.JobSpec
	start, end time.Time
	// insts counts the committed simulated instructions the job's report
	// covers.
	insts uint64
	err   error

	// Sweep workloads.
	rep       *experiments.Report
	csv       string
	ckptBytes int64

	// Service workloads.
	info                  simapi.JobInfo
	report                []byte
	timings               simclient.TimingSummary
	submit, fetch, notify time.Duration
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.start) }

// measure runs the workload's closed loop over jobs [first, first+n): each
// client takes the next job index, runs it, and repeats. A phase that runs
// past limit starts no further jobs, and each job it skips is a failed
// outcome, so that a shortened phase cannot pass for a correct one. It
// returns all n outcomes in job order and the time from the start to the
// last completion.
func measure(ctx context.Context, inst instance, clients, first, n int, limit time.Duration, tr *tracer) ([]outcome, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(limit)
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= first+n {
					return
				}
				o := inst.runJob(ctx, i, tr)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := int(next.Load()); i < first+n; i++ {
		outs = append(outs, outcome{job: i, err: fmt.Errorf("job %d not started: the phase ran past %v", i, limit)})
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].job < outs[b].job })
	return outs, elapsed
}
