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
// paper.
type ConfigKind int

// The five configurations of Figures 2 and 3.
const (
	// IdealBaseline is the normalisation baseline: an associative store queue
	// with perfect (oracle) load scheduling.
	IdealBaseline ConfigKind = iota
	// Baseline is the realistic conventional design: associative store queue
	// with StoreSets load scheduling.
	Baseline
	// NoSQNoDelay is NoSQ with the bypassing predictor and no delay.
	NoSQNoDelay
	// NoSQDelay is NoSQ with the bypassing predictor and the confidence-driven
	// delay mechanism.
	NoSQDelay
	// PerfectSMB is the idealised NoSQ configuration: perfect bypassing
	// prediction with idealised partial-word support.
	PerfectSMB
)

// Kinds returns all configuration kinds in presentation order.
func Kinds() []ConfigKind {
	return []ConfigKind{IdealBaseline, Baseline, NoSQNoDelay, NoSQDelay, PerfectSMB}
}

// String implements fmt.Stringer.
func (k ConfigKind) String() string {
	switch k {
	case IdealBaseline:
		return "ideal-baseline"
	case Baseline:
		return "assoc-sq-storesets"
	case NoSQNoDelay:
		return "nosq-nodelay"
	case NoSQDelay:
		return "nosq-delay"
	case PerfectSMB:
		return "perfect-smb"
	default:
		return fmt.Sprintf("config?%d", int(k))
	}
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
	var cfg pipeline.Config
	switch kind {
	case IdealBaseline:
		cfg = pipeline.IdealBaselineConfig()
	case Baseline:
		cfg = pipeline.BaselineConfig()
	case NoSQNoDelay:
		cfg = pipeline.NoSQConfig(false)
	case NoSQDelay:
		cfg = pipeline.NoSQConfig(true)
	case PerfectSMB:
		cfg = pipeline.PerfectSMBConfig()
	default:
		cfg = pipeline.BaselineConfig()
	}
	if windowSize > 0 && windowSize != cfg.ROBSize {
		cfg = cfg.WithWindow(windowSize)
	}
	return cfg
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
