package experiments

import (
	"cmp"
	"context"
	"strings"
)

// The trace experiment replays recorded program traces — *.nsqt files with
// their provenance manifests under Options.TraceDir, as written by
// cmd/nosq-trace — against the paper's machine configurations, through
// exactly the sweep engine the synthetic experiments use: same
// config-parallel batching, same checkpoint/resume, same per-(trace,
// configuration, window) rows. It is the frontend for programs that were
// *executed once* somewhere and measured many times here, instead of being
// regenerated from a workload profile on every node.
//
// Result identity: the experiment scope embeds a hash over every trace
// file's content hash (see traceSource), so the sweep engine's pair keys (and
// the simulation server's content-addressed cache keys derived from them)
// distinguish traces by what they contain, not what they are named. Each
// trace's ref name — slug plus sixteen hash digits — is its benchmark name in
// rows, job specs and logs, so a one-byte change to a trace changes both the
// scope and the name.

// DefaultTraceDir is where the committed trace corpus lives, relative to
// the repository root.
const DefaultTraceDir = "bench/traces"

func init() {
	Register(funcExperiment{
		name: "trace",
		desc: "recorded program traces (bench/traces, or -trace-dir) replayed against the paper configurations",
		run: func(ctx context.Context, opts Options) (*Report, error) {
			dir := cmp.Or(opts.TraceDir, DefaultTraceDir)
			entries, err := traceSet(dir, opts.Benchmarks)
			if err != nil {
				return nil, err
			}
			src := traceSource(entries)
			rep, g, err := runGrid(ctx, "trace", src, traceLayout, opts)
			if err != nil {
				return nil, err
			}
			rep.AddMeta("trace-dir", dir)
			rep.AddMeta("traces", strings.Join(src.names, ","))
			rep.AddMeta("trace-scope", src.scope)
			if len(opts.Windows) > 0 {
				rep.AddMeta("windows", commaList(g.windows))
			}
			return rep, nil
		},
	})
}
