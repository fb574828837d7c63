// Command harness is the repository's benchmark. It drives the NoSQ
// simulator, its sweep engine and its simulation service from outside —
// through the public functions of workload, emu, traceio, pipeline,
// experiments, simserver, simworker and simclient, and through the server's
// own metrics and job span events — on one of four workloads, checks every
// output, and prints every metric by name and unit. The last line of
// standard output is one JSON object: {correct, attempted, failed, metrics}.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash bench/harness/run.sh -workload sweep-grid -seed 1 -seconds 16
//	bash bench/harness/run.sh -workload fleet-cold -seed 1 -trace 1
//	bash bench/harness/run.sh -workload service-warm -seed 2 -out results.jsonl
//	bash bench/harness/run.sh -compare parent.jsonl change.jsonl
//
// Without -workload it runs every workload, each in a process of its own so
// that peak memory is per workload. See README.md for the workloads, the
// metrics and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("harness", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "the workload to run: sweep-grid, sweep-single, fleet-cold or service-warm (default: all, one process each)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 16, "how long a measured phase lasts on the reference host, in seconds; it sets the number of jobs")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the layer decomposition instead of end-to-end metrics")
	out := fs.String("out", "", "append the run's results document, as one JSON line, to this file")
	spans := fs.String("spans", "", "traced runs: write the spans as JSONL here (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	compare := fs.String("compare", "", "compare two run sets: -compare A.jsonl B.jsonl judges B against A")
	decl := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare takes its bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "-compare takes two run sets: -compare A.jsonl B.jsonl")
			return 2
		}
		return runCompare(stdout, stderr, *decl, *compare, fs.Arg(0))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: harness [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out F] [-spans F]")
		return 2
	}
	if *workload == "" {
		return runAll(args, stdout, stderr)
	}
	if _, err := lookupWorkload(*workload); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Everything the run writes stays under .bench_build in the working
	// directory; paths are made absolute because the service workloads work
	// inside their set-up directory.
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sc: defaultScale, workDir: workDir}
	if cfg.trace {
		cfg.spans = *spans
		if cfg.spans == "" {
			cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		}
		if cfg.spans, err = filepath.Abs(cfg.spans); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	outPath := *out
	if outPath != "" {
		if outPath, err = filepath.Abs(outPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// A watchdog bounds the whole run, to under three minutes at the default
	// length; interrupts stop it early. Either way the set-up directories
	// are removed before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(max(160, 5*cfg.seconds+40)*float64(time.Second)))
	defer cancel()

	doc, err := execute(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *workload, err)
		return 1
	}
	printMetrics(stdout, doc)
	if outPath != "" {
		if err := appendDoc(outPath, doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, doc.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload with the same flags, each in a child process,
// one after another.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func appendDoc(path string, doc *runDoc) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCompare(stdout, stderr io.Writer, declPath, aPath, bPath string) int {
	decl, err := loadDeclaration(declPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	a, errA := readRunSet(aPath)
	b, errB := readRunSet(bPath)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	vs := compareSets(decl, a, b)
	if len(vs) == 0 {
		fmt.Fprintln(stderr, "the run sets share no workload's untraced runs")
		return 1
	}
	fmt.Fprintf(stdout, "A = %s (%d runs), B = %s (%d runs)\n", aPath, len(a), bPath, len(b))
	printVerdicts(stdout, vs)
	return 0
}
