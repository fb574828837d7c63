// Command nosq-tune searches the declarative scenario space for workloads
// that are pathological for NoSQ: a coverage-guided, deterministic loop that
// mutates scenario specs to maximize a chosen badness objective (pipeline
// flush rate, bypass mispredictions, SVW filter misses, or IPC gap vs. the
// conventional baseline) and commits the survivors that beat the built-in
// stress suite as provenance-stamped JSON entries under bench/corpus/.
//
// Examples:
//
//	nosq-tune -list-objectives
//	nosq-tune -objective flush-rate -seed 1            # search, commit to bench/corpus
//	nosq-tune -objective mispred -dry-run              # search, print survivors only
//	nosq-tune -objective ipc-gap -baseline assoc-sq-storesets -generations 6
//	nosq-tune -server http://127.0.0.1:8080            # evaluate via a fleet
//
// Committed entries replay anywhere a scenario spec does (the provenance
// block is an ignored unknown field): `nosqsim -scenario <file>`,
// `nosq-experiments -scenario <file>`, an inline server job, or — all at
// once — the corpus experiment (`nosq-experiments -exp corpus`).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simclient"
	"repro/internal/stats"
	"repro/internal/tuner"
)

func main() {
	var (
		objective   = flag.String("objective", "flush-rate", "search objective: "+strings.Join(tuner.ObjectiveNames(), ", "))
		listObjs    = flag.Bool("list-objectives", false, "list search objectives, then exit")
		seed        = flag.Uint64("seed", 1, "root search seed; equal seeds and budgets reproduce the search exactly")
		generations = flag.Int("generations", 0, "mutate-evaluate-prune rounds (0 = 4)")
		population  = flag.Int("population", 0, "children bred per generation (0 = 12)")
		corpusSize  = flag.Int("corpus-size", 0, "surviving corpus cap (0 = 8)")
		iters       = flag.Int("iters", 0, "iterations baked into every candidate spec (0 = 256)")
		window      = flag.Int("window", 128, "instruction-window size of the evaluation cell")
		config      = flag.String("config", "nosq-delay", "configuration kind under attack")
		baseline    = flag.String("baseline", "assoc-sq-storesets", "baseline configuration kind for relative objectives (ipc-gap)")
		maxInsts    = flag.Uint64("max-insts", 0, "bound each simulation to N committed instructions (0 = unbounded)")
		parallel    = flag.Int("parallel", 0, "concurrent candidate evaluations (0 = GOMAXPROCS)")
		server      = flag.String("server", "", "evaluate candidates via this simulation server URL instead of in-process")
		out         = flag.String("out", experiments.DefaultCorpusDir, "directory to commit discovered entries to")
		commit      = flag.Int("commit", 3, "commit at most N survivors that beat the stress suite")
		dryRun      = flag.Bool("dry-run", false, "search and report, but write no corpus entries")
		timeout     = flag.Duration("timeout", 0, "abort the search after this long (0 = no deadline)")
		version     = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *version {
		obs.PrintVersion(os.Stdout, "nosq-tune")
		return
	}
	if *listObjs {
		for _, o := range tuner.Objectives() {
			fmt.Printf("%-12s %s [%s]\n", o.Name, o.Desc, o.Unit)
		}
		return
	}

	obj, err := tuner.ObjectiveByName(*objective)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *generations < 0 || *population < 0 || *corpusSize < 0 || *iters < 0 || *parallel < 0 || *commit < 0 {
		fmt.Fprintln(os.Stderr, "-generations, -population, -corpus-size, -iters, -parallel, and -commit must be non-negative")
		os.Exit(2)
	}
	if *window <= 0 {
		fmt.Fprintf(os.Stderr, "-window must be positive, got %d\n", *window)
		os.Exit(2)
	}

	settings := tuner.EvalSettings{Config: *config, Window: *window, MaxInsts: *maxInsts}
	if obj.NeedsBaseline {
		settings.BaselineConfig = *baseline
	}

	var eval tuner.Evaluator
	if *server != "" {
		eval = tuner.ServerEvaluator{Client: simclient.New(*server, nil).WithClientID("nosq-tune")}
	} else {
		eval = tuner.LocalEvaluator{}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	res, err := tuner.Run(ctx, tuner.Config{
		Objective:   obj,
		Settings:    settings,
		Seed:        *seed,
		Generations: *generations,
		Population:  *population,
		CorpusSize:  *corpusSize,
		Iterations:  *iters,
		Parallelism: *parallel,
		Log: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, eval)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	tbl := stats.NewTable(
		fmt.Sprintf("Tuner corpus: objective %s [%s], config %s, window %d", obj.Name, obj.Unit, *config, *window),
		"scenario", "pattern", "gen", "score", "beats-stress", "mutation")
	for _, c := range res.Corpus {
		pattern := c.Scenario.Pattern
		if pattern == "" {
			pattern = "profile"
		}
		mutation := c.Mutation
		if mutation == "" {
			mutation = "(seed)"
		}
		tbl.AddRow(c.Scenario.Name, pattern, c.Generation, c.Score, c.Score > res.StressBest, mutation)
	}
	text, err := tbl.Render(stats.FormatText)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(text)
	fmt.Printf("> stress-suite best: %.4f (%s)\n", res.StressBest, res.StressBestName)
	fmt.Printf("> evaluated %d distinct scenarios (%d memoized) in %v\n",
		res.Evaluated, res.Memoized, time.Since(start).Round(time.Millisecond))

	var survivors []tuner.Candidate
	for _, c := range res.Corpus {
		if c.Score > res.StressBest && len(survivors) < *commit {
			survivors = append(survivors, c)
		}
	}
	if len(survivors) == 0 {
		fmt.Println("> no survivor beat the stress suite; nothing to commit (raise -generations/-population)")
		return
	}
	if *dryRun {
		fmt.Printf("> dry run: %d survivor(s) beat the stress suite, none written\n", len(survivors))
		return
	}
	for _, c := range survivors {
		entry := corpus.Entry{
			Scenario: c.Scenario,
			Provenance: corpus.Provenance{
				Objective:        obj.Name,
				Unit:             obj.Unit,
				Score:            c.Score,
				Config:           settings.Config,
				BaselineConfig:   settings.BaselineConfig,
				Window:           settings.Window,
				Iterations:       c.Scenario.Iterations,
				SearchSeed:       *seed,
				SearchIterations: res.SearchIterations,
				Generation:       c.Generation,
				Parent:           c.Parent,
				Mutation:         c.Mutation,
				Lineage:          c.Lineage,
				StressBest:       res.StressBest,
				ScenarioHash:     c.Hash,
				Tool:             "nosq-tune",
			},
		}
		path, err := corpus.WriteEntry(*out, entry)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("> committed %s (score %.4f, stress best %.4f)\n", path, c.Score, res.StressBest)
	}
}
