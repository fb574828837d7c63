// Command nosq-bench runs the simulator performance harness (internal/perf)
// and writes a BENCH_<revision>.json measurement document.
//
// With -baseline it also gates the run against a committed measurement,
// exiting non-zero when any configuration's geometric-mean throughput — or
// trace recording's — drops by more than -max-regression percent, or when
// allocations per simulated instruction or recording's bytes per instruction
// grow past the fixed allocation limit. This is the command CI's bench job
// runs on every push. With -summary it appends a Markdown geomean-delta
// table (per configuration kind, plus the config-parallel batch and the
// recording measurements) to the given file — CI points it at
// $GITHUB_STEP_SUMMARY.
//
// Examples:
//
//	nosq-bench -out bench/
//	nosq-bench -baseline bench/BENCH_baseline.json -max-regression 20
//	nosq-bench -baseline bench/BENCH_baseline.json -summary "$GITHUB_STEP_SUMMARY"
//	nosq-bench -benchmarks gzip,mesa.o -iters 60 -repeats 1
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
)

// validateFlags rejects flag values that would make the perf gate vacuous or
// always-failing: a zero -max-regression fails on any timer noise, and a
// negative one fails even on improvements, so both almost certainly mean a
// mistyped invocation rather than an intended policy.
func validateFlags(maxRegression float64) error {
	if maxRegression <= 0 {
		return fmt.Errorf("-max-regression must be a positive percentage, got %v", maxRegression)
	}
	return nil
}

// revision resolves the revision label: the -rev flag, else git's short
// HEAD, else "dev".
func revision(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if rev := strings.TrimSpace(string(out)); err == nil && rev != "" {
		return rev
	}
	return "dev"
}

func main() {
	var (
		out      = flag.String("out", ".", "output file, or a directory to receive BENCH_<rev>.json")
		rev      = flag.String("rev", "", "revision label (default: git short HEAD, else dev)")
		baseline = flag.String("baseline", "", "committed BENCH_*.json to gate against")
		maxDrop  = flag.Float64("max-regression", 20, "with -baseline: fail when a configuration's geomean throughput drops by more than this percentage")
		iters    = flag.Int("iters", 0, "workload iterations per benchmark (0 = harness default)")
		repeats  = flag.Int("repeats", 0, "runs per (benchmark, configuration); best is kept (0 = harness default)")
		window   = flag.Int("window", 0, "instruction window size (0 = harness default)")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the paper's selected benchmarks)")
		configs  = flag.String("configs", "", "comma-separated configuration kinds (default: all five)")
		summary  = flag.String("summary", "", "append a Markdown comparison table to this file (CI points it at $GITHUB_STEP_SUMMARY)")
		version  = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "nosq-bench")
		return
	}

	if err := validateFlags(*maxDrop); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := perf.Options{
		Iterations: *iters,
		Repeats:    *repeats,
		Window:     *window,
		Revision:   revision(*rev),
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			opts.Benchmarks = append(opts.Benchmarks, strings.TrimSpace(b))
		}
	}
	if *configs != "" {
		for _, name := range strings.Split(*configs, ",") {
			k, err := core.KindByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			opts.Kinds = append(opts.Kinds, k)
		}
	}

	res, err := perf.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(perf.Summarize(res))

	path := *out
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, perf.FileName(res.Revision))
	}
	if err := perf.WriteFile(path, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)

	var base *perf.Result
	if *baseline != "" {
		base, err = perf.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := perf.Comparable(base, res); err != nil {
			fmt.Fprintf(os.Stderr, "%v; run with the baseline's settings to gate\n", err)
			os.Exit(2)
		}
	}

	// The Markdown summary is written before the gate's verdict so a failing
	// CI run still shows its numbers. Improvements are flagged at the same
	// threshold that gates regressions.
	if *summary != "" {
		if err := appendSummary(*summary, perf.MarkdownSummary(base, res, *maxDrop)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if base == nil {
		return
	}
	regs := perf.Compare(base, res, *maxDrop)
	if len(regs) == 0 {
		fmt.Printf("no throughput regression beyond %.0f%% vs %s (revision %s)\n", *maxDrop, *baseline, base.Revision)
		return
	}
	fmt.Fprintf(os.Stderr, "throughput regressions beyond %.0f%% vs %s (revision %s):\n", *maxDrop, *baseline, base.Revision)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	os.Exit(1)
}

// appendSummary appends Markdown to path, creating it if needed —
// $GITHUB_STEP_SUMMARY semantics, where several steps may share one file.
func appendSummary(path, md string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(md + "\n"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
