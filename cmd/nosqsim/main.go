// Command nosqsim runs one synthetic benchmark on one (or every) machine
// configuration and prints the resulting statistics as text (default),
// Markdown, JSON, or CSV.
//
// Examples:
//
//	nosqsim -bench gzip -config nosq-delay
//	nosqsim -bench mesa.o -all -window 256 -iters 600
//	nosqsim -bench gzip -all -format json -out gzip.json
//	nosqsim -bench gzip -all -timeout 30s
//	nosqsim -scenario myspec.json -all
//	nosqsim -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "gzip", "benchmark name (see -list)")
		scenario = flag.String("scenario", "", "workload scenario spec file (JSON) to run instead of -bench")
		config   = flag.String("config", core.NoSQDelay.String(), "machine configuration")
		all      = flag.Bool("all", false, "run every configuration")
		window   = flag.Int("window", 128, "instruction window (ROB) size")
		iters    = flag.Int("iters", 0, "workload iterations (0 = default)")
		maxInst  = flag.Uint64("max-insts", 0, "stop after N committed instructions (0 = unbounded)")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		format   = flag.String("format", stats.FormatText, "output format: "+strings.Join(stats.Formats(), ", "))
		out      = flag.String("out", "", "write output to this file (default: stdout)")
		list     = flag.Bool("list", false, "list benchmarks and configurations, then exit")
		version  = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "nosqsim")
		return
	}

	// Reject a bad -format before simulating — the run's output would be lost.
	if err := stats.ValidateFormat(*format); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("Benchmarks:")
		for _, b := range core.Benchmarks() {
			fmt.Printf("  %s\n", b)
		}
		fmt.Println("Configurations:")
		for _, k := range core.Kinds() {
			fmt.Printf("  %s\n", k)
		}
		return
	}

	kinds := core.Kinds()
	if !*all {
		k, err := core.KindByName(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		kinds = []core.ConfigKind{k}
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}

	// SIGINT/SIGTERM and -timeout both cancel in-flight simulations through
	// the sweep engine's context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := experiments.Options{
		Iterations: *iters,
		MaxInsts:   *maxInst,
		Benchmarks: []string{*bench},
		Configs:    names,
		Windows:    []int{*window},
	}
	title := *bench
	runExp := experiments.Sweep
	if *scenario != "" {
		// A scenario spec replaces the benchmark: the scenario experiment
		// produces the same per-configuration rows, so the classic table
		// below works unchanged.
		s, err := workload.LoadScenarioFile(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Scenario = &s
		opts.Benchmarks = nil
		title = s.Name
		scn, err := experiments.Lookup("scenario")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runExp = scn.Run
	}
	rep, err := runExp(ctx, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "nosqsim: deadline exceeded: the run did not finish within -timeout %v\n", *timeout)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Present the classic nosqsim table: one row per configuration, in the
	// order requested.
	tbl := stats.NewTable(fmt.Sprintf("%s (window %d)", title, *window),
		"config", "cycles", "IPC", "comm%", "bypassed", "delayed", "mispred/10k", "flushes", "D$ reads", "reexec")
	for _, r := range rep.Rows.([]experiments.SweepRow) {
		tbl.AddRow(r.Config, r.Cycles, r.IPC, r.CommPct,
			r.Bypassed, r.Delayed, r.MisPer10k, r.Flushes, r.DCacheReads, r.Reexecutions)
	}

	text, err := tbl.Render(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(text)
}
