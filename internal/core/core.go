// Package core is the high-level entry point of the NoSQ reproduction: it
// ties the workload generator, the machine configurations, and the timing
// simulator together behind a small API used by the command-line tools, the
// examples, and the experiment subsystem (internal/experiments).
//
// The typical flow generates a benchmark (or builds a program with the
// program package) and runs it under one of the paper's configurations:
//
//	prog, err := workload.Generate("gzip", workload.Options{})
//	run, err := core.SimulateProgram(prog, core.ConfigFor(core.NoSQDelay, 128))
//	fmt.Println(run.IPC())
package core

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ConfigKind names one of the five machine configurations evaluated in the
// paper; it is the timing model's own pipeline.Kind.
type ConfigKind = pipeline.Kind

// The five configurations of Figures 2 and 3 (see pipeline.Kind).
const (
	IdealBaseline = pipeline.IdealBaseline
	Baseline      = pipeline.Baseline
	NoSQNoDelay   = pipeline.NoSQNoDelay
	NoSQDelay     = pipeline.NoSQDelay
	PerfectSMB    = pipeline.PerfectSMB
)

// Kinds returns all configuration kinds in presentation order.
func Kinds() []ConfigKind {
	return []ConfigKind{IdealBaseline, Baseline, NoSQNoDelay, NoSQDelay, PerfectSMB}
}

// KindByName parses a configuration name (as printed by String).
func KindByName(name string) (ConfigKind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown configuration %q", name)
}

// ConfigFor returns the pipeline configuration for a kind and window size
// (128 or 256 in the paper; any positive size is accepted).
func ConfigFor(kind ConfigKind, windowSize int) pipeline.Config {
	return pipeline.ConfigFor(kind, windowSize)
}

// Benchmarks returns the names of all 47 benchmarks of Table 5.
func Benchmarks() []string { return workload.Names() }

// SelectedBenchmarks returns the subset plotted in Figures 3-5.
func SelectedBenchmarks() []string { return workload.SelectedNames() }

// SimulateProgram runs an arbitrary program under an explicit machine
// configuration.
func SimulateProgram(prog *program.Program, cfg pipeline.Config) (stats.Run, error) {
	sim, err := pipeline.New(prog, cfg)
	if err != nil {
		return stats.Run{}, err
	}
	return sim.Run()
}
