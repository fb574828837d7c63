package experiments

import (
	"cmp"
	"context"
	"strings"
)

// The corpus experiment replays the committed pathological-scenario corpus
// (bench/corpus — scenarios discovered by cmd/nosq-tune) as regression
// workloads, through exactly the scenario experiment's machinery: same sweep
// engine, same per-(scenario, configuration, window) rows, same scope
// derivation from canonical scenario content. It exists so the corpus runs as
// a named registry entry in CI (nightly, through the fleet) rather than as a
// loose shell loop over spec files.
//
// The corpus is read from Options.CorpusDir (default "bench/corpus", relative
// to the process working directory). In a distributed run the leased JobSpec
// carries no file contents, so every fleet worker loads the directory from
// its *own* checkout — byte-identical replay across CLI, server, and fleet
// therefore requires the nodes to share the same corpus revision, which CI
// guarantees by running all three from one checkout.

// DefaultCorpusDir is where the committed corpus lives, relative to the
// repository root.
const DefaultCorpusDir = "bench/corpus"

func init() {
	Register(funcExperiment{
		name: "corpus",
		desc: "committed pathological-scenario corpus (bench/corpus) replayed as regression workloads",
		run: func(ctx context.Context, opts Options) (*Report, error) {
			dir := cmp.Or(opts.CorpusDir, DefaultCorpusDir)
			scns, err := corpusSet(dir, opts.Benchmarks)
			if err != nil {
				return nil, err
			}
			src := scenarioSource(scns)
			rep, _, err := runGrid(ctx, "corpus", src, scenarioLayout(scns), opts)
			if err != nil {
				return nil, err
			}
			rep.AddMeta("corpus-dir", dir)
			rep.AddMeta("scenarios", strings.Join(src.names, ","))
			rep.AddMeta("scenario-scope", src.scope)
			return rep, nil
		},
	})
}
