package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// FileName returns the canonical name for a revision's measurement document.
func FileName(revision string) string { return "BENCH_" + revision + ".json" }

// WriteFile writes a result as indented JSON.
func WriteFile(path string, r *Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a measurement document, rejecting unknown schemas.
func ReadFile(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: %s has schema %d, this build understands %d", path, r.Schema, Schema)
	}
	return &r, nil
}

// Regression is one measurement that worsened beyond its allowed threshold.
type Regression struct {
	// Config is the configuration kind ("overall" for the whole-suite mean).
	Config string
	// Metric names the gated measurement: "insts/sec", "allocs/kinst" or,
	// for recording, "bytes/inst".
	Metric string
	// Baseline and Current are the metric's values in the two results.
	Baseline float64
	Current  float64
	// WorsePct is the regression magnitude in percent (positive = worse).
	WorsePct float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.1f -> %.1f (%.1f%% worse)", r.Config, r.Metric, r.Baseline, r.Current, r.WorsePct)
}

// Alloc gating policy: allocations per simulated instruction are a property
// of the code, not of the machine the baseline was recorded on, so they get
// a fixed, tight gate — a regression is a >50% increase with one
// alloc/kinst of slack for measurement fuzz on near-zero counts. Recording's
// bytes per instruction are gated by the same limit.
const (
	allocIncreaseLimitPct = 50
	allocSlackPerKInst    = 1.0
)

// Comparable reports whether two results were measured under the same
// harness settings. Gating across different settings is meaningless —
// allocs/kinst amortises one-time construction over the workload length, and
// throughput depends on the benchmark mix — so callers should refuse to
// gate when this returns an error.
func Comparable(baseline, current *Result) error {
	if baseline.Iterations != current.Iterations {
		return fmt.Errorf("perf: baseline measured at %d iterations, current at %d", baseline.Iterations, current.Iterations)
	}
	if baseline.Window != current.Window {
		return fmt.Errorf("perf: baseline measured at window %d, current at %d", baseline.Window, current.Window)
	}
	if len(baseline.Benchmarks) != len(current.Benchmarks) {
		return fmt.Errorf("perf: baseline measured %d benchmarks, current %d", len(baseline.Benchmarks), len(current.Benchmarks))
	}
	for i := range baseline.Benchmarks {
		if baseline.Benchmarks[i] != current.Benchmarks[i] {
			return fmt.Errorf("perf: benchmark sets differ (%q vs %q)", baseline.Benchmarks[i], current.Benchmarks[i])
		}
	}
	// The overall geomean spans the configuration grid, so gating it across
	// different configuration sets would compare incomparable numbers.
	if len(baseline.Configs) != len(current.Configs) {
		return fmt.Errorf("perf: baseline measured %d configurations, current %d", len(baseline.Configs), len(current.Configs))
	}
	for i := range baseline.Configs {
		if baseline.Configs[i].Config != current.Configs[i].Config {
			return fmt.Errorf("perf: configuration sets differ (%q vs %q)", baseline.Configs[i].Config, current.Configs[i].Config)
		}
	}
	return nil
}

// Compare gates current against baseline. It returns a Regression per
// configuration kind (and the overall mean) whose geometric-mean throughput
// dropped by more than maxDropPct percent, and per configuration kind whose
// allocations per 1000 simulated instructions grew beyond the fixed alloc
// policy. Trace recording is gated the same way — its throughput against
// maxDropPct, its bytes per instruction against the alloc policy — when
// both results carry it. Per-configuration geometric means are compared —
// rather than individual (benchmark, configuration) cells — so single-cell
// timer noise cannot fail the build; the wall-clock threshold is
// additionally coarse because the committed baseline may have been recorded
// on different hardware, while the allocation gate is hardware-independent.
// Configurations absent from either result are skipped.
func Compare(baseline, current *Result, maxDropPct float64) []Regression {
	var regs []Regression
	checkSpeed := func(name string, base, cur float64) {
		if base <= 0 || cur <= 0 {
			return
		}
		drop := 100 * (base - cur) / base
		if drop > maxDropPct {
			regs = append(regs, Regression{Config: name, Metric: "insts/sec", Baseline: base, Current: cur, WorsePct: drop})
		}
	}
	checkAllocs := func(name, metric string, base, cur float64) {
		if cur <= base*(1+allocIncreaseLimitPct/100.0)+allocSlackPerKInst {
			return
		}
		worse := 100.0
		if base > 0 {
			worse = 100 * (cur - base) / base
		}
		regs = append(regs, Regression{Config: name, Metric: metric, Baseline: base, Current: cur, WorsePct: worse})
	}
	curByCfg := make(map[string]ConfigSummary, len(current.Configs))
	for _, c := range current.Configs {
		curByCfg[c.Config] = c
	}
	for _, b := range baseline.Configs {
		if c, ok := curByCfg[b.Config]; ok {
			checkSpeed(b.Config, b.InstsPerSec, c.InstsPerSec)
			checkAllocs(b.Config, "allocs/kinst", b.AllocsPerKInst, c.AllocsPerKInst)
		}
	}
	checkSpeed("overall", baseline.OverallInstsPerSec, current.OverallInstsPerSec)
	// Batch throughput is gated only when both results carry a batch
	// measurement (checkSpeed skips zero values): documents recorded before
	// the config-parallel engine existed must still gate the scalar numbers.
	if baseline.BatchWidth == current.BatchWidth {
		checkSpeed("batch", baseline.BatchInstsPerSec, current.BatchInstsPerSec)
	}
	// Recording likewise: a baseline from before nosq-bench timed
	// RecordTrace has neither field, and checkSpeed skips the zero.
	checkSpeed("record", baseline.RecordInstsPerSec, current.RecordInstsPerSec)
	if baseline.RecordBytesPerInst > 0 && current.RecordBytesPerInst > 0 {
		checkAllocs("record", "bytes/inst", baseline.RecordBytesPerInst, current.RecordBytesPerInst)
	}
	return regs
}

// Summarize renders a short human-readable table of a result.
func Summarize(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "revision %s  (%s %s/%s, iters=%d, repeats=%d, window=%d, %d benchmarks)\n",
		r.Revision, r.GoVersion, r.GOOS, r.GOARCH, r.Iterations, r.Repeats, r.Window, len(r.Benchmarks))
	for _, c := range r.Configs {
		fmt.Fprintf(&sb, "  %-22s %12.0f insts/sec  %8.1f ns/cycle  %8.1f allocs/kinst\n",
			c.Config, c.InstsPerSec, c.NsPerCycle, c.AllocsPerKInst)
	}
	fmt.Fprintf(&sb, "  %-22s %12.0f insts/sec\n", "overall (geomean)", r.OverallInstsPerSec)
	if r.BatchWidth > 0 {
		fmt.Fprintf(&sb, "  %-22s %12.0f insts/sec  %7.2fx vs scalar\n",
			fmt.Sprintf("batch (width %d)", r.BatchWidth), r.BatchInstsPerSec, r.BatchSpeedup)
	}
	if r.RecordInstsPerSec > 0 {
		fmt.Fprintf(&sb, "  %-22s %12.0f insts/sec  %8.1f bytes/inst\n",
			"record (geomean)", r.RecordInstsPerSec, r.RecordBytesPerInst)
	}
	return sb.String()
}
