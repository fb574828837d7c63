package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// A recorder produces one workload's dynamic instruction trace, by recording
// a generated program or by decoding a recorded file.
type recorder func() (*emu.Trace, error)

// source is where an experiment's workloads come from, and the only way a
// workload reaches runSweep. names lists the workloads in pair order, each
// once. scope namespaces their results in a result store, so a store shared
// across experiments never serves one experiment's runs to another. suite
// gives each name's suite. open prepares a name's recorder; runSweep opens
// every name with a pending pair before any pair runs, so a bad name fails
// the sweep up front.
type source struct {
	names []string
	scope string
	suite func(name string) workload.Suite
	open  func(name string, opts Options) (recorder, error)
}

// benchmarkSource generates Table 5 benchmarks under a fixed scope.
func benchmarkSource(scope string, names []string) source {
	return source{names: names, scope: scope, suite: suiteOf, open: generated(workload.Generate)}
}

// scenarioSource generates declarative scenarios. Its scope hashes every
// canonicalized spec, so two specs sharing a name but differing in any knob
// can never serve each other's results.
func scenarioSource(scns []workload.Scenario) source {
	byName := make(map[string]workload.Scenario, len(scns))
	names := make([]string, len(scns))
	specs := make([][]byte, len(scns))
	for i, s := range scns {
		byName[s.Name] = s
		names[i] = s.Name
		specs[i] = s.Canonical()
	}
	return source{
		names: names,
		scope: contentScope("scenario", specs),
		suite: customSuite,
		open: generated(func(name string, o workload.Options) (*program.Program, error) {
			return workload.GenerateScenario(byName[name], o)
		}),
	}
}

// traceSource decodes recorded trace files instead of generating programs.
// Its names are the entries' ref names and its scope hashes every file's
// content hash, so a one-byte change to a trace changes both. A file whose
// decoded content hash is not the one it was listed under (replaced after
// listing) fails its pairs instead of running under the old content's name
// and scope.
func traceSource(entries []traceio.Entry) source {
	byName := make(map[string]traceio.Entry, len(entries))
	names := make([]string, len(entries))
	hashes := make([][]byte, len(entries))
	for i, e := range entries {
		names[i] = e.RefName()
		hashes[i] = []byte(e.TraceHash)
		byName[names[i]] = e
	}
	return source{
		names: names,
		scope: contentScope("trace", hashes),
		suite: customSuite,
		open: func(name string, _ Options) (recorder, error) {
			e := byName[name]
			return func() (*emu.Trace, error) {
				t, sum, err := traceio.ReadFile(e.Path)
				if err != nil {
					return nil, err
				}
				if sum.Hash != e.TraceHash {
					return nil, fmt.Errorf("experiments: trace %s decodes to hash %s, but was listed as %s under %s (replaced after listing?)",
						e.Path, sum.Hash, name, e.TraceHash)
				}
				return t, nil
			}, nil
		},
	}
}

func customSuite(string) workload.Suite { return workload.Custom }

// generated opens a name by generating its program up front — cheap and
// deterministic in (name, iterations), which is what lets distributed
// workers regenerate exactly the program the coordinator planned — and
// records its trace on first use, up to opts.MaxInsts as pipeline.New does.
func generated(gen func(string, workload.Options) (*program.Program, error)) func(string, Options) (recorder, error) {
	return func(name string, opts Options) (recorder, error) {
		p, err := gen(name, workload.Options{Iterations: opts.Iterations})
		if err != nil {
			return nil, err
		}
		return func() (*emu.Trace, error) { return emu.RecordTrace(p, opts.MaxInsts) }, nil
	}
}

// contentScope names a run by what its workloads are, not what they are
// called: kind, a colon, and 16 hex digits of a hash over every workload's
// content identity in order. Any change to any workload changes the scope,
// and with it every pair key.
func contentScope(kind string, ids [][]byte) string {
	h := sha256.New()
	for _, id := range ids {
		h.Write(id)
		h.Write([]byte{0})
	}
	return kind + ":" + hex.EncodeToString(h.Sum(nil))[:16]
}

// selectNamed returns the items with the given names, in the order named,
// keeping only the first of a repeated name; no names selects every item.
// An unknown name fails with unknown, the name, and the known names.
func selectNamed[T any](items []T, nameOf func(T) string, names []string, unknown string) ([]T, error) {
	if len(names) == 0 {
		return items, nil
	}
	byName := make(map[string]T, len(items))
	known := make([]string, len(items))
	for i, it := range items {
		known[i] = nameOf(it)
		byName[known[i]] = it
	}
	out := make([]T, 0, len(names))
	for _, n := range dedup(names) {
		it, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("experiments: %s %q (known: %s)", unknown, n, strings.Join(known, ", "))
		}
		out = append(out, it)
	}
	return out, nil
}

// scenarioSet resolves the scenario experiment's workloads: the inline spec
// when there is one, otherwise the built-in stress suite, narrowed to
// opts.Benchmarks when they are set.
func scenarioSet(opts Options) ([]workload.Scenario, error) {
	if opts.Scenario != nil {
		s := *opts.Scenario
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return []workload.Scenario{s}, nil
	}
	return selectNamed(workload.StressScenarios(), func(s workload.Scenario) string { return s.Name },
		opts.Benchmarks, "unknown stress scenario")
}

// corpusSet resolves the corpus experiment's workloads: the entries of dir,
// narrowed to names when they are set.
func corpusSet(dir string, names []string) ([]workload.Scenario, error) {
	entries, err := corpus.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	entries, err = selectNamed(entries, func(e corpus.Entry) string { return e.Name }, names, "no corpus entry named")
	if err != nil {
		return nil, err
	}
	return corpus.Scenarios(entries), nil
}

// traceSet resolves the trace experiment's workloads: the entries of dir,
// narrowed to names when they are set. Names are ref names — the
// content-addressed identity a job spec carries — so a spec recorded against
// one trace revision fails loudly against another instead of silently
// replaying different bytes under the same human name.
func traceSet(dir string, names []string) ([]traceio.Entry, error) {
	entries, err := traceio.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return selectNamed(entries, traceio.Entry.RefName, names, "no trace named")
}
