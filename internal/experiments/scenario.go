package experiments

import (
	"context"
	"strings"
)

// The scenario experiment runs declarative workload scenarios — an inline
// spec (Options.Scenario) or the built-in stress suite
// (workload.StressScenarios) — against the paper's machine configurations.
// It reports the same raw per-run measurements as the free-form sweep, one
// row per (scenario, configuration, window) cell.
//
// Result identity: the experiment scope embeds a hash over the canonical
// content of every scenario in the run (see scenarioSource), so the sweep
// engine's pair keys (and the simulation server's content-addressed cache
// keys derived from them) distinguish scenarios by what they *are*, not what
// they are called. Two specs sharing a name but differing in any knob can
// never serve each other's cached measurements; re-running an identical spec
// resumes from cache as usual.

func init() {
	Register(funcExperiment{
		name: "scenario",
		desc: "declarative workload scenarios (inline spec or the built-in stress suite) against the paper configurations",
		run: func(ctx context.Context, opts Options) (*Report, error) {
			scns, err := scenarioSet(opts)
			if err != nil {
				return nil, err
			}
			src := scenarioSource(scns)
			rep, g, err := runGrid(ctx, "scenario", src, scenarioLayout(scns), opts)
			if err != nil {
				return nil, err
			}
			rep.AddMeta("scenarios", strings.Join(src.names, ","))
			rep.AddMeta("scenario-scope", src.scope)
			if len(opts.Windows) > 0 {
				rep.AddMeta("windows", commaList(g.windows))
			}
			return rep, nil
		},
	})
}
