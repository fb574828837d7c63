package perf

import (
	"fmt"
	"strings"
)

// MarkdownSummary renders a GitHub-flavoured Markdown comparison of current
// against baseline, written by CI's bench job to the step summary: one
// geomean-delta row per configuration kind (throughput and allocs/kinst),
// the overall mean, the batch measurement with its width and speedup over
// scalar simulation, and trace recording (throughput and bytes/inst).
//
// Improvements larger than improveFlagPct percent are called out with a
// reminder to refresh the committed baseline: the regression gate compares
// against the committed file, so a big win that is never committed leaves
// the gate slack enough to mask an equally big later regression.
//
// baseline may be nil (or lack particular configurations), in which case the
// affected rows render without deltas.
func MarkdownSummary(baseline, current *Result, improveFlagPct float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Simulator throughput (revision %s)\n\n", current.Revision)
	if baseline != nil {
		fmt.Fprintf(&sb, "Baseline: revision %s\n\n", baseline.Revision)
	}
	sb.WriteString("| config | insts/sec | Δ vs baseline | allocs/kinst | Δ vs baseline |\n")
	sb.WriteString("|---|---:|---:|---:|---:|\n")

	baseCfg := make(map[string]ConfigSummary)
	if baseline != nil {
		for _, c := range baseline.Configs {
			baseCfg[c.Config] = c
		}
	}
	// delta renders a percentage change, or a dash when the baseline lacks
	// the value.
	delta := func(base, cur float64) string {
		if base <= 0 || cur <= 0 {
			return "—"
		}
		return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
	}
	var improved []string
	flagImprovement := func(name string, base, cur float64) {
		if base > 0 && cur > 0 && 100*(cur-base)/base > improveFlagPct {
			improved = append(improved, name)
		}
	}

	for _, c := range current.Configs {
		b, ok := baseCfg[c.Config]
		if !ok {
			b = ConfigSummary{}
		}
		fmt.Fprintf(&sb, "| %s | %.0f | %s | %.1f | %s |\n",
			c.Config, c.InstsPerSec, delta(b.InstsPerSec, c.InstsPerSec),
			c.AllocsPerKInst, delta(b.AllocsPerKInst, c.AllocsPerKInst))
		flagImprovement(c.Config, b.InstsPerSec, c.InstsPerSec)
	}
	var baseOverall float64
	if baseline != nil {
		baseOverall = baseline.OverallInstsPerSec
	}
	fmt.Fprintf(&sb, "| **overall (geomean)** | %.0f | %s | | |\n",
		current.OverallInstsPerSec, delta(baseOverall, current.OverallInstsPerSec))
	flagImprovement("overall", baseOverall, current.OverallInstsPerSec)

	if current.BatchWidth > 0 {
		var baseBatch float64
		if baseline != nil && baseline.BatchWidth == current.BatchWidth {
			baseBatch = baseline.BatchInstsPerSec
		}
		fmt.Fprintf(&sb, "| **batch (width %d)** | %.0f | %s | | %.2fx vs scalar |\n",
			current.BatchWidth, current.BatchInstsPerSec,
			delta(baseBatch, current.BatchInstsPerSec), current.BatchSpeedup)
		flagImprovement("batch", baseBatch, current.BatchInstsPerSec)
	}

	if current.RecordInstsPerSec > 0 {
		var baseIPS, baseBytes float64
		if baseline != nil {
			baseIPS, baseBytes = baseline.RecordInstsPerSec, baseline.RecordBytesPerInst
		}
		fmt.Fprintf(&sb, "| **record (emu.RecordTrace)** | %.0f | %s | %.1f bytes/inst | %s |\n",
			current.RecordInstsPerSec, delta(baseIPS, current.RecordInstsPerSec),
			current.RecordBytesPerInst, delta(baseBytes, current.RecordBytesPerInst))
		flagImprovement("record", baseIPS, current.RecordInstsPerSec)
	}

	if len(improved) > 0 {
		fmt.Fprintf(&sb, "\n> ⚠️ Throughput improved by more than %.0f%% on: %s. "+
			"Refresh `bench/BENCH_baseline.json` with this run so the perf gate holds the win "+
			"— a stale baseline leaves room for an equally large silent regression.\n",
			improveFlagPct, strings.Join(improved, ", "))
	}
	return sb.String()
}
