// Package perf is the simulator's performance-measurement harness.
//
// It runs a pinned benchmark set — the paper's selected benchmarks (the
// Figure 2-5 subset) under all five machine configurations — and reports
// simulation throughput (simulated instructions per second), time per
// simulated cycle, and allocations per run, as a machine-readable
// BENCH_<revision>.json document. CI runs the harness on every push, uploads
// the document as an artifact, and fails the build when throughput regresses
// by more than a threshold against the committed baseline (see Compare).
//
// Each benchmark's dynamic instruction trace is recorded in a timed region of
// its own (record_insts_per_sec, record_bytes_per_inst) and then shared by
// the per-configuration simulations — the same arrangement the experiment
// sweep engine uses — so the simulation numbers measure exactly the
// per-simulation hot path a sweep pays, and recording, which a sweep pays
// once per benchmark, is measured and gated beside them.
package perf

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Schema identifies the BENCH document layout; bump it on incompatible
// changes so Compare can reject mismatched files.
const Schema = 1

// Options configures a harness run. The zero value selects the pinned CI
// measurement: the paper's selected benchmarks, all five configurations, a
// 128-entry window, 120 workload iterations, best of 5 repeats.
type Options struct {
	// Benchmarks is the benchmark set (default: core.SelectedBenchmarks()).
	Benchmarks []string
	// Kinds is the configuration set (default: core.Kinds()).
	Kinds []core.ConfigKind
	// Window is the instruction-window size (default 128).
	Window int
	// Iterations is the workload length (default 120, the scaled-down CI
	// subset; the full experiments use 400).
	Iterations int
	// Repeats is how many times each (benchmark, configuration) simulation
	// is run; the best throughput and lowest allocation count are kept.
	Repeats int
	// Revision labels the result (a VCS revision in CI).
	Revision string
}

func (o Options) withDefaults() Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = core.SelectedBenchmarks()
	}
	if len(o.Kinds) == 0 {
		o.Kinds = core.Kinds()
	}
	if o.Window <= 0 {
		o.Window = 128
	}
	if o.Iterations <= 0 {
		o.Iterations = 120
	}
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	if o.Revision == "" {
		o.Revision = "dev"
	}
	return o
}

// Entry is the measurement of one (configuration, benchmark) simulation.
type Entry struct {
	Config       string  `json:"config"`
	Benchmark    string  `json:"benchmark"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	WallNs       int64   `json:"wall_ns"`
	InstsPerSec  float64 `json:"insts_per_sec"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	BytesPerRun  uint64  `json:"bytes_per_run"`
}

// BatchEntry is the measurement of one benchmark's config-parallel batch:
// every configuration kind simulated together in one pass over the shared
// trace (pipeline.Batch), timed as a whole.
type BatchEntry struct {
	Benchmark string `json:"benchmark"`
	// Width is the number of member configurations.
	Width int `json:"width"`
	// Instructions is the total committed across all members.
	Instructions uint64  `json:"instructions"`
	WallNs       int64   `json:"wall_ns"`
	InstsPerSec  float64 `json:"insts_per_sec"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	BytesPerRun  uint64  `json:"bytes_per_run"`
	// Speedup is the benchmark's fastest scalar pass over the full
	// configuration grid (each repeat simulates every configuration once;
	// the best total wall is kept) divided by the best batch wall: how much
	// faster the batch simulates the same configuration set than
	// one-at-a-time simulation.
	Speedup float64 `json:"speedup"`
}

// ConfigSummary aggregates a configuration kind across the benchmark set.
type ConfigSummary struct {
	Config string `json:"config"`
	// InstsPerSec is the geometric-mean simulation throughput.
	InstsPerSec float64 `json:"insts_per_sec"`
	// NsPerCycle is the mean wall-clock cost of one simulated cycle.
	NsPerCycle float64 `json:"ns_per_cycle"`
	// AllocsPerKInst is allocations per 1000 simulated instructions.
	AllocsPerKInst float64 `json:"allocs_per_kinst"`
}

// Result is one complete harness run, the contents of a BENCH_<rev>.json.
type Result struct {
	Schema     int      `json:"schema"`
	Revision   string   `json:"revision"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Iterations int      `json:"iterations"`
	Repeats    int      `json:"repeats"`
	Window     int      `json:"window"`
	Benchmarks []string `json:"benchmarks"`
	Entries    []Entry  `json:"entries"`
	// Configs summarises each configuration kind across benchmarks.
	Configs []ConfigSummary `json:"configs"`
	// OverallInstsPerSec is the geometric mean over every entry.
	OverallInstsPerSec float64 `json:"overall_insts_per_sec"`

	// Batch measurement (config-parallel simulation of all kinds per
	// benchmark). The fields are additive: documents recorded before the
	// batch engine existed carry zero values, and Compare gates batch
	// throughput only when both results have it.
	//
	// BatchWidth is the number of configurations batched per benchmark
	// (0 = batch measurement absent).
	BatchWidth int `json:"batch_width,omitempty"`
	// BatchEntries holds one batch measurement per benchmark.
	BatchEntries []BatchEntry `json:"batch_entries,omitempty"`
	// BatchInstsPerSec is the geometric-mean batch throughput.
	BatchInstsPerSec float64 `json:"batch_insts_per_sec,omitempty"`
	// BatchSpeedup is the geometric-mean per-benchmark speedup of the batch
	// over one-at-a-time scalar simulation of the same configuration set.
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`

	// Recording measurement (emu.RecordTrace of each benchmark, Repeats
	// times, best kept). The fields are additive like the batch fields:
	// documents recorded before recording was timed carry zero values, and
	// Compare gates each only when both results have it.
	//
	// RecordInstsPerSec is the geometric mean, over benchmarks, of the best
	// repeat's recorded instructions per second.
	RecordInstsPerSec float64 `json:"record_insts_per_sec,omitempty"`
	// RecordBytesPerInst is the heap bytes RecordTrace allocates per
	// recorded instruction over the whole benchmark set, taking each
	// benchmark's lowest repeat.
	RecordBytesPerInst float64 `json:"record_bytes_per_inst,omitempty"`

	// Host provenance: the CPU model, runtime.NumCPU and GOMAXPROCS of the
	// machine the run measured on. Throughput follows the host, so the
	// Markdown summary names both sides'. The fields are additive like the
	// batch fields: documents recorded before they existed lack them and
	// still load and compare.
	CPUModel   string `json:"cpu_model,omitempty"`
	NProc      int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// Run executes the harness and returns the measurements.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		Schema:     Schema,
		Revision:   opts.Revision,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Iterations: opts.Iterations,
		Repeats:    opts.Repeats,
		Window:     opts.Window,
		Benchmarks: opts.Benchmarks,
	}

	type agg struct {
		ips, nspc     []float64
		allocs, insts uint64
	}
	byCfg := make(map[string]*agg, len(opts.Kinds))
	var recIPS []float64
	var recBytes, recInsts uint64

	for _, b := range opts.Benchmarks {
		prog, err := workload.Generate(b, workload.Options{Iterations: opts.Iterations})
		if err != nil {
			return nil, err
		}
		trace, ips, bytes, err := measureRecord(prog, opts.Repeats)
		if err != nil {
			return nil, fmt.Errorf("perf: recording %s: %w", b, err)
		}
		recIPS = append(recIPS, ips)
		recBytes += bytes
		recInsts += trace.Len()
		// gridWalls[r] accumulates repeat r's wall time across every kind:
		// one full scalar pass over the configuration grid, one configuration
		// at a time. The batch speedup denominator is the fastest
		// such pass — a wall time some scalar run actually achieved — rather
		// than the sum of per-kind minima, which combines lucky repeats of
		// independent runs into a composite no single pass ever ran.
		gridWalls := make([]int64, opts.Repeats)
		for _, k := range opts.Kinds {
			cfg := core.ConfigFor(k, opts.Window)
			best, walls, err := measure(trace, cfg, k.String(), b, opts.Repeats)
			if err != nil {
				return nil, err
			}
			res.Entries = append(res.Entries, best)
			for r, w := range walls {
				gridWalls[r] += w
			}
			a := byCfg[best.Config]
			if a == nil {
				a = &agg{}
				byCfg[best.Config] = a
			}
			a.ips = append(a.ips, best.InstsPerSec)
			a.nspc = append(a.nspc, best.NsPerCycle)
			a.allocs += best.AllocsPerRun
			a.insts += best.Instructions
		}
		// Config-parallel measurement: all kinds of this benchmark in one
		// batch over the shared trace, the way the sweep engine runs them.
		// The TraceMeta pre-decode happens outside the timed region, like
		// trace recording: both are per-benchmark work amortised across
		// configurations.
		if len(opts.Kinds) > 1 {
			meta, err := pipeline.NewTraceMeta(trace)
			if err != nil {
				return nil, fmt.Errorf("perf: pre-decoding %s: %w", b, err)
			}
			cfgs := make([]pipeline.Config, len(opts.Kinds))
			for i, k := range opts.Kinds {
				cfgs[i] = core.ConfigFor(k, opts.Window)
			}
			be, err := measureBatch(trace, meta, cfgs, b, opts.Repeats)
			if err != nil {
				return nil, err
			}
			scalarWall := gridWalls[0]
			for _, w := range gridWalls[1:] {
				if w < scalarWall {
					scalarWall = w
				}
			}
			be.Speedup = float64(scalarWall) / float64(be.WallNs)
			res.BatchEntries = append(res.BatchEntries, be)
		}
	}

	var all []float64
	for _, k := range opts.Kinds {
		a := byCfg[k.String()]
		if a == nil {
			continue
		}
		res.Configs = append(res.Configs, ConfigSummary{
			Config:         k.String(),
			InstsPerSec:    stats.GeoMean(a.ips),
			NsPerCycle:     stats.Mean(a.nspc),
			AllocsPerKInst: 1000 * float64(a.allocs) / float64(a.insts),
		})
		all = append(all, a.ips...)
	}
	res.OverallInstsPerSec = stats.GeoMean(all)
	if len(res.BatchEntries) > 0 {
		res.BatchWidth = len(opts.Kinds)
		var ips, sp []float64
		for _, be := range res.BatchEntries {
			ips = append(ips, be.InstsPerSec)
			sp = append(sp, be.Speedup)
		}
		res.BatchInstsPerSec = stats.GeoMean(ips)
		res.BatchSpeedup = stats.GeoMean(sp)
	}
	res.RecordInstsPerSec = stats.GeoMean(recIPS)
	if recInsts > 0 {
		res.RecordBytesPerInst = float64(recBytes) / float64(recInsts)
	}
	return res, nil
}

// measureRecord times Repeats recordings of the program's whole dynamic
// stream, keeping the best throughput and the lowest allocated bytes like
// measure, and returns the last recording for the simulations to share.
func measureRecord(prog *program.Program, repeats int) (trace *emu.Trace, bestIPS float64, leastBytes uint64, err error) {
	for r := 0; r < repeats; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		trace, err = emu.RecordTrace(prog, 0)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, 0, err
		}
		if wall <= 0 {
			wall = time.Nanosecond
		}
		if ips := float64(trace.Len()) / wall.Seconds(); ips > bestIPS {
			bestIPS = ips
		}
		if bytes := m1.TotalAlloc - m0.TotalAlloc; r == 0 || bytes < leastBytes {
			leastBytes = bytes
		}
	}
	return trace, bestIPS, leastBytes, nil
}

// measure times Repeats simulations of one configuration over a shared
// trace, keeping the best throughput and the lowest allocation count (the
// steady-state floor; the first run pays one-time warm-up allocations such
// as page-table and bucket growth). The returned walls slice carries every
// repeat's wall time in order, so the caller can reconstruct per-repeat
// grid passes.
func measure(trace *emu.Trace, cfg pipeline.Config, kindName, benchmark string, repeats int) (Entry, []int64, error) {
	var best Entry
	walls := make([]int64, 0, repeats)
	for r := 0; r < repeats; r++ {
		// The MemStats window opens before simulator construction so
		// AllocsPerRun covers the whole per-simulation cost a sweep job
		// pays: hardware-structure construction plus the cycle loop.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sim, err := pipeline.NewFromTrace(trace, cfg)
		if err != nil {
			return Entry{}, nil, err
		}
		start := time.Now()
		run, err := sim.Run()
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return Entry{}, nil, fmt.Errorf("perf: %s/%s: %w", benchmark, kindName, err)
		}
		if wall <= 0 {
			wall = time.Nanosecond
		}
		walls = append(walls, wall.Nanoseconds())
		e := Entry{
			Config:       kindName,
			Benchmark:    benchmark,
			Instructions: run.Committed,
			Cycles:       run.Cycles,
			WallNs:       wall.Nanoseconds(),
			InstsPerSec:  float64(run.Committed) / wall.Seconds(),
			NsPerCycle:   float64(wall.Nanoseconds()) / float64(run.Cycles),
			AllocsPerRun: m1.Mallocs - m0.Mallocs,
			BytesPerRun:  m1.TotalAlloc - m0.TotalAlloc,
		}
		if r == 0 {
			best = e
			continue
		}
		if e.AllocsPerRun < best.AllocsPerRun {
			best.AllocsPerRun = e.AllocsPerRun
			best.BytesPerRun = e.BytesPerRun
		}
		if e.InstsPerSec > best.InstsPerSec {
			allocs, bytes := best.AllocsPerRun, best.BytesPerRun
			best = e
			best.AllocsPerRun, best.BytesPerRun = allocs, bytes
		}
	}
	return best, walls, nil
}

// measureBatch times Repeats config-parallel runs of one benchmark's full
// configuration set over the shared trace and pre-decoded meta, keeping the
// best throughput and lowest allocation count exactly like measure. Batch
// construction is inside the MemStats window for the same reason simulator
// construction is: it is the per-batch cost a sweep group pays.
func measureBatch(trace *emu.Trace, meta *pipeline.TraceMeta, cfgs []pipeline.Config, benchmark string, repeats int) (BatchEntry, error) {
	var best BatchEntry
	for r := 0; r < repeats; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		batch, err := pipeline.NewBatchWithMeta(trace, meta, cfgs)
		if err != nil {
			return BatchEntry{}, fmt.Errorf("perf: batching %s: %w", benchmark, err)
		}
		start := time.Now()
		runs, errs := batch.Run()
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		for i, err := range errs {
			if err != nil {
				return BatchEntry{}, fmt.Errorf("perf: %s batch member %d: %w", benchmark, i, err)
			}
		}
		if wall <= 0 {
			wall = time.Nanosecond
		}
		var insts uint64
		for _, run := range runs {
			insts += run.Committed
		}
		e := BatchEntry{
			Benchmark:    benchmark,
			Width:        len(cfgs),
			Instructions: insts,
			WallNs:       wall.Nanoseconds(),
			InstsPerSec:  float64(insts) / wall.Seconds(),
			AllocsPerRun: m1.Mallocs - m0.Mallocs,
			BytesPerRun:  m1.TotalAlloc - m0.TotalAlloc,
		}
		if r == 0 {
			best = e
			continue
		}
		if e.AllocsPerRun < best.AllocsPerRun {
			best.AllocsPerRun = e.AllocsPerRun
			best.BytesPerRun = e.BytesPerRun
		}
		if e.InstsPerSec > best.InstsPerSec {
			allocs, bytes := best.AllocsPerRun, best.BytesPerRun
			best = e
			best.AllocsPerRun, best.BytesPerRun = allocs, bytes
		}
	}
	return best, nil
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
