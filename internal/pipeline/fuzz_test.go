package pipeline

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// fuzzIterations bounds the loop count of every fuzzed scenario, and
// fuzzMaxInsts its recorded trace, so that one input simulates in tens of
// milliseconds.
const (
	fuzzIterations = 20
	fuzzMaxInsts   = 5_000
)

// fuzzConfig maps knob bytes into a configuration inside Config.Validate's
// range: one of the five kinds, a window of 8 to 256 entries (with at least
// one renameable physical register), fetch/rename and issue/commit widths
// of 1 to 8, an issue queue of 1 to 16, load and store queues of 1 to 16, a
// T-SSBF of 1 to 128 sets of 1 to 8 ways, and a back-end of 2 to 8 stages
// with its data-cache stage anywhere inside it.
func fuzzConfig(kind, window, width, iq, lsq, tssbf, depth byte) Config {
	cfg := ConfigFor(Kind(int(kind)%int(numKinds)), 8<<(window%6))
	cfg.PhysRegs = max(cfg.PhysRegs, isa.NumArchRegs+1)
	cfg.FetchWidth = 1 + int(width%8)
	cfg.RenameWidth = cfg.FetchWidth
	cfg.IssueWidth = 1 + int(width/8%8)
	cfg.CommitWidth = cfg.IssueWidth
	cfg.IQSize = 1 + int(iq%16)
	cfg.LQSize = 1 + int(lsq%16)
	cfg.SQSize = 1 + int(lsq/16)
	sets, ways := 1<<(tssbf%8), 1<<(tssbf/8%4)
	cfg.TSSBFEntries, cfg.TSSBFAssoc = sets*ways, ways
	cfg.BackendDepth = 2 + int(depth%7)
	cfg.BackendDCacheStage = 1 + int(depth/8)%(cfg.BackendDepth-1)
	return cfg
}

// FuzzSimulate fuzzes the simulator with scenario specs and machine knobs.
// Each accepted spec is generated at fuzzIterations and recorded (at most
// fuzzMaxInsts instructions), then stepped under the scan oracle
// (checkOracle): the scheduler must issue what the scan picks every cycle,
// no load may escape the SVW filter, the deadlock watchdog must not fire,
// and the stepped statistics must equal a plain Run's. A plain Run
// must then commit the whole trace. The seeds are the committed scenario
// corpus (bench/corpus) and the stress suite, as for FuzzParseScenario,
// with knobs that cycle through the five kinds.
func FuzzSimulate(f *testing.F) {
	entries, err := corpus.LoadDir("../../bench/corpus")
	if err != nil {
		f.Fatal(err)
	}
	specs := append(corpus.Scenarios(entries), workload.StressScenarios()...)
	for i, sc := range specs {
		k := byte(i)
		f.Add(sc.Canonical(), k, 4+k, 27+k, 39+k, 5+16*k, 18+k, 7*k)
	}

	f.Fuzz(func(t *testing.T, spec []byte, kind, window, width, iq, lsq, tssbf, depth byte) {
		sc, err := workload.ParseScenario(spec)
		if err != nil {
			return // the parser's own fuzz target covers rejected specs
		}
		p, err := workload.GenerateScenario(sc, workload.Options{Iterations: fuzzIterations})
		if err != nil {
			t.Fatalf("generating an accepted spec: %v", err)
		}
		tr, err := emu.RecordTrace(p, fuzzMaxInsts)
		if err != nil {
			t.Fatalf("recording %s: %v", sc.Name, err)
		}
		cfg := fuzzConfig(kind, window, width, iq, lsq, tssbf, depth)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("knobs mapped outside Config.Validate's range: %v", err)
		}
		checkOracle(t, tr, cfg)

		s, err := NewFromTrace(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s/%s: %v", tr.Name(), cfg.Name, err)
		}
		if res.Committed != tr.Len() {
			t.Fatalf("%s/%s committed %d of %d instructions", tr.Name(), cfg.Name, res.Committed, tr.Len())
		}
	})
}
