// Package tuner is the adversarial scenario search: a coverage-guided loop
// that mutates declarative workload scenarios (internal/workload.Scenario) to
// maximize a pluggable badness objective — pipeline flush rate, bypass
// mispredictions, SVW filter misses, or IPC gap versus the conventional
// baseline — turning the simulator into a predictor-fuzzing engine.
//
// The search is generational and fully deterministic in its root seed. Each
// generation selects parents from an elitist corpus by tournament, derives
// children through seeded single-knob mutations (see Mutate), names each
// child from its canonical content, and evaluates new children through an
// Evaluator — the in-process scenario experiment (LocalEvaluator) or a
// simulation server/fleet (ServerEvaluator). Evaluations are memoized by
// scenario content hash, and because scenario content is also what the
// experiment layer folds into its result keys, repeated candidates are free
// at every level: the in-run memo and the server's content-addressed cache
// both key on the same identity.
//
// The corpus is pruned for coverage, not just score: candidates are bucketed
// by a quantized behaviour signature (pattern plus coarse flush, misprediction,
// re-execution, and communication rates) and only the best of each bucket
// survives, so the survivors stress *different* pathologies instead of being
// ten rephrasings of the single worst one. Survivors that beat the built-in
// stress suite's best score are committed under bench/corpus/ by cmd/nosq-tune
// and replayed as regression workloads by the corpus experiment.
package tuner

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/workload"
)

// Config parameterizes a search run.
type Config struct {
	// Objective is the badness measure the search maximizes.
	Objective Objective
	// Settings fixes the evaluation cell (configuration, baseline, window).
	Settings EvalSettings
	// Seed is the root seed; every mutation seed of the run derives from
	// it, so equal (Seed, Objective, Settings, budget) means an identical
	// search.
	Seed uint64
	// Generations is the number of mutate-evaluate-prune rounds (0 = 4).
	Generations int
	// Population is the number of children bred per generation (0 = 12).
	Population int
	// CorpusSize caps the surviving corpus (0 = 8).
	CorpusSize int
	// Iterations is baked into every candidate spec's own iterations knob
	// (0 = 256), so a committed spec replays at exactly the searched
	// length with no -iters override.
	Iterations int
	// Parallelism bounds concurrent candidate evaluations
	// (0 = GOMAXPROCS).
	Parallelism int
	// NamePrefix prefixes discovered scenario names:
	// <prefix>/<objective>/<hash8> (0 = "tuned").
	NamePrefix string
	// Log, when set, receives one line per search event (generation
	// summaries, new bests).
	Log func(format string, args ...interface{})
}

func (c *Config) defaults() {
	if c.Generations == 0 {
		c.Generations = 4
	}
	if c.Population == 0 {
		c.Population = 12
	}
	if c.CorpusSize == 0 {
		c.CorpusSize = 8
	}
	if c.Iterations == 0 {
		c.Iterations = 256
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.NamePrefix == "" {
		c.NamePrefix = "tuned"
	}
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Candidate is one evaluated scenario with its search provenance.
type Candidate struct {
	Scenario    workload.Scenario
	Hash        string
	Measurement Measurement
	// Score is the objective value (higher = worse for NoSQ).
	Score float64
	// Generation the candidate was bred in (0 = a seed).
	Generation int
	// Parent is the parent scenario's hash ("" for seeds).
	Parent string
	// Mutation describes the knob delta from the parent.
	Mutation string
	// Lineage lists every mutation from the seed down, oldest first.
	Lineage []string
}

// Result is a finished search.
type Result struct {
	// Corpus holds the survivors, best first (ties broken by hash).
	Corpus []Candidate
	// StressBest is the best objective score over the built-in stress
	// suite under the run's evaluation settings, and StressBestName the
	// scenario achieving it. A survivor with Score > StressBest found a
	// regime the committed stress suite does not cover.
	StressBest     float64
	StressBestName string
	// Evaluated counts distinct scenarios simulated; Memoized counts
	// candidates skipped because an identical spec was already measured.
	Evaluated int
	Memoized  int
	// SearchIterations is the effective Config.Iterations after
	// defaulting — the iteration count seeds (and StressBest) used.
	SearchIterations int
}

// Run executes the search. It is deterministic in cfg: concurrency only
// changes wall-clock order, never scores, corpus content, or report order.
func Run(ctx context.Context, cfg Config, eval Evaluator) (Result, error) {
	cfg.defaults()
	if cfg.Objective.Score == nil {
		return Result{}, fmt.Errorf("tuner: config without an objective")
	}
	if cfg.Objective.NeedsBaseline && cfg.Settings.BaselineConfig == "" {
		return Result{}, fmt.Errorf("tuner: objective %s needs a baseline configuration", cfg.Objective.Name)
	}
	if cfg.Settings.Config == "" || cfg.Settings.Window <= 0 {
		return Result{}, fmt.Errorf("tuner: evaluation settings need a config and a positive window")
	}

	t := &search{cfg: cfg, eval: eval, memo: make(map[string]Measurement)}

	// Seed generation: the built-in stress suite pinned to the run's
	// iteration count, plus the default profile workload as a neutral
	// starting point for knob exploration.
	var seeds []workload.Scenario
	for _, s := range workload.StressScenarios() {
		s.Iterations = cfg.Iterations
		seeds = append(seeds, s)
	}
	seeds = append(seeds, workload.Scenario{
		Name:       cfg.NamePrefix + "/profile-seed",
		Iterations: cfg.Iterations,
	})

	var corpus []Candidate
	evaluated, err := t.evaluateAll(ctx, seedCandidates(seeds))
	if err != nil {
		return Result{}, err
	}
	res := Result{StressBest: -1}
	for _, c := range evaluated {
		if _, isStressSeed := workload.StressScenarioByName(c.Scenario.Name); isStressSeed && c.Score > res.StressBest {
			res.StressBest = c.Score
			res.StressBestName = c.Scenario.Name
		}
		corpus = append(corpus, c)
	}
	corpus = t.prune(corpus)
	cfg.logf("gen 0: %d seeds evaluated, stress best %.4f (%s), corpus %d",
		len(evaluated), res.StressBest, res.StressBestName, len(corpus))

	sel := &rng{s: mix64(cfg.Seed, 0x5e1ec7, 0)}
	for gen := 1; gen <= cfg.Generations; gen++ {
		var children []Candidate
		for i := 0; i < cfg.Population; i++ {
			parent := tournament(sel, corpus)
			child, desc := Mutate(parent.Scenario, mix64(cfg.Seed, uint64(gen), uint64(i)))
			child.Name = t.childName(child)
			children = append(children, Candidate{
				Scenario:   child,
				Generation: gen,
				Parent:     parent.Hash,
				Mutation:   desc,
				Lineage:    append(append([]string(nil), parent.Lineage...), desc),
			})
		}
		evaluated, err := t.evaluateAll(ctx, children)
		if err != nil {
			return Result{}, err
		}
		corpus = t.prune(append(corpus, evaluated...))
		best := 0.0
		if len(corpus) > 0 {
			best = corpus[0].Score
		}
		cfg.logf("gen %d: %d children (%d new), corpus %d, best %.4f (%s)",
			gen, len(children), len(evaluated), len(corpus), best, corpus[0].Scenario.Name)
	}

	res.Corpus = corpus
	res.Evaluated = len(t.memo)
	res.Memoized = t.memoized
	res.SearchIterations = cfg.Iterations
	return res, nil
}

// search is the per-run mutable state.
type search struct {
	cfg  Config
	eval Evaluator

	mu       sync.Mutex
	memo     map[string]Measurement
	memoized int
}

// childName names a candidate from its canonical content: the knobs are
// hashed under a fixed placeholder name, and the first 8 hex digits become
// the child's identity. Identical knob sets therefore collapse to one name —
// and one content hash — no matter which parents produced them, which is
// what lets the memo and the result caches deduplicate across lineages.
func (t *search) childName(s workload.Scenario) string {
	prefix := t.cfg.NamePrefix + "/" + t.cfg.Objective.Name
	s.Name = prefix
	return fmt.Sprintf("%s/%.8s", prefix, s.Hash())
}

// seedCandidates wraps seed scenarios as generation-0 candidates.
func seedCandidates(seeds []workload.Scenario) []Candidate {
	out := make([]Candidate, len(seeds))
	for i, s := range seeds {
		out[i] = Candidate{Scenario: s, Generation: 0}
	}
	return out
}

// evaluateAll measures every not-yet-seen candidate, bounded by
// cfg.Parallelism, and returns the newly evaluated candidates in input
// order with Hash, Measurement, and Score filled in. Already-seen hashes are
// counted as memoized and dropped (their measurements are already in the
// corpus).
func (t *search) evaluateAll(ctx context.Context, cands []Candidate) ([]Candidate, error) {
	var fresh []Candidate
	for _, c := range cands {
		c.Hash = c.Scenario.Hash()
		t.mu.Lock()
		_, seen := t.memo[c.Hash]
		if seen {
			t.memoized++
		} else {
			t.memo[c.Hash] = Measurement{} // reserve: duplicates within this batch
		}
		t.mu.Unlock()
		if !seen {
			fresh = append(fresh, c)
		}
	}

	sem := make(chan struct{}, t.cfg.Parallelism)
	errs := make([]error, len(fresh))
	var wg sync.WaitGroup
	for i := range fresh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := &fresh[i]
			m, err := t.eval.Evaluate(ctx, c.Scenario, t.cfg.Settings)
			if err != nil {
				errs[i] = err
				return
			}
			c.Measurement = m
			c.Score = t.cfg.Objective.Score(m)
			t.mu.Lock()
			t.memo[c.Hash] = m
			t.mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// tournament selects a parent: two uniform draws, higher score wins.
func tournament(r *rng, corpus []Candidate) Candidate {
	a := corpus[r.intn(len(corpus))]
	b := corpus[r.intn(len(corpus))]
	if b.Score > a.Score {
		return b
	}
	return a
}

// prune sorts candidates best-first and keeps at most cfg.CorpusSize
// survivors, at most one per behaviour signature: a candidate whose
// quantized behaviour matches a better-scoring survivor is dominated and
// dropped, so the corpus spans distinct pathological regimes.
func (t *search) prune(cands []Candidate) []Candidate {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Hash < cands[j].Hash
	})
	seen := make(map[string]bool, len(cands))
	out := make([]Candidate, 0, t.cfg.CorpusSize)
	for _, c := range cands {
		sig := signature(c)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, c)
		if len(out) == t.cfg.CorpusSize {
			break
		}
	}
	return out
}

// signature quantizes a candidate's behaviour into a coverage bucket:
// program shape plus coarse flush, misprediction, re-execution, and
// communication rates. Buckets are deliberately wide — the corpus should
// hold one champion per regime, not a gradient of near-duplicates.
func signature(c Candidate) string {
	m := c.Measurement
	pattern := c.Scenario.Pattern
	if pattern == "" {
		pattern = workload.PatternProfile
	}
	q := func(v, step float64) int { return int(v / step) }
	return fmt.Sprintf("%s|f%d|m%d|r%d|c%d",
		pattern,
		q(per1k(m.Flushes, m.Committed), 10),
		q(m.MisPer10k, 500),
		q(per1k(m.Reexecutions, m.Committed), 10),
		q(m.CommPct, 20))
}

// mix64 folds three words into one splitmix64-whitened seed.
func mix64(a, b, c uint64) uint64 {
	r := rng{s: a ^ b*0x9E3779B97F4A7C15 ^ c*0xC2B2AE3D27D4EB4F}
	return r.next()
}
