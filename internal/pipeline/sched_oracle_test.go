package pipeline

// Differential oracle for the event-driven issue scheduler (sched.go).
//
// The scheduler replaced a polling scan that walked every issue-queue
// occupant oldest first each cycle and issued those whose inputs and
// memory-scheduling gates were satisfied. The scan is kept here as the
// reference: scanSelect, scanReady and scanProducerDone are its selection
// logic, answering producer completion by looking the producer up in the
// window (find) instead of through the completed bitmap. oracleStep steps a
// simulator one stage at a time and, every cycle, checks that issueFast
// issues exactly the instructions the scan picks. At the end the stepped
// run's statistics must equal a plain Run of the same pair, so the stage
// order here cannot drift from step.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// scanSelect returns the sequence numbers the scan would issue this cycle,
// oldest first. It only selects: issuing one instruction cannot change
// another's readiness within the cycle (readiness depends on completions and
// on stores reaching the data cache, neither of which issue changes), so
// selecting first and issuing afterwards picks what the scan picked.
func scanSelect(s *Simulator) []uint64 {
	var ports [portNone + 1]int
	ports[portSimple] = s.cfg.SimpleIntPorts
	ports[portComplex] = s.cfg.ComplexPorts
	ports[portBranch] = s.cfg.BranchPorts
	ports[portLoad] = s.cfg.LoadPorts
	ports[portStore] = s.cfg.StorePorts
	var picked []uint64
	// The issue queue holds exactly the renamed, un-issued IQ holders, which
	// the window keeps in sequence order.
	for i := 0; i < s.window.len() && len(picked) < s.cfg.IssueWidth; i++ {
		in := s.window.at(i)
		if in.holdsIQ && ports[in.port] > 0 && scanReady(s, in) {
			picked = append(picked, in.seq)
			ports[in.port]--
		}
	}
	return picked
}

// scanReady is the scan's readiness predicate.
func scanReady(s *Simulator, in *inflight) bool {
	if !in.isLoad() {
		return scanProducerDone(s, in.srcSeqs[0]) && scanProducerDone(s, in.srcSeqs[1])
	}
	// Loads need only their base address register.
	if !scanProducerDone(s, in.srcSeqs[0]) {
		return false
	}
	// Scheduling gate: wait for a specific older store to execute.
	if in.waitExecSeq != 0 && !scanProducerDone(s, in.waitExecSeq) {
		return false
	}
	// Delay gate / partial-word stall: wait for a store to reach the D$.
	if in.waitCommitSSN != 0 && in.waitCommitSSN > s.ssnInDCache {
		return false
	}
	// Associative multi-source hold: the youngest overlapping store must
	// not have executed yet while the stores drain.
	if s.cfg.LSQ == LSQAssociative {
		dep := in.dyn.Dep
		if dep.Exists && dep.MultiSource && dep.SSN > s.ssnInDCache {
			depIn := s.find(dep.Seq)
			if depIn == nil || depIn.storeExecuted {
				return false
			}
		}
	}
	return true
}

// scanProducerDone reports whether the producer seq has completed or left
// the window, by finding its window record.
func scanProducerDone(s *Simulator, seq uint64) bool {
	if seq == 0 {
		return true
	}
	in := s.find(seq)
	if in == nil {
		return true
	}
	return in.completed
}

// oracleStep is step with the issue stage checked against the scan. It
// returns a description of the first disagreement, or "".
func oracleStep(s *Simulator) string {
	s.drainDCacheWrites()
	s.retire()
	s.commitEnter()
	s.complete()
	want := scanSelect(s)
	var occupants []*inflight
	for i := 0; i < s.window.len(); i++ {
		if in := s.window.at(i); in.holdsIQ {
			occupants = append(occupants, in)
		}
	}
	s.issueFast()
	var got []uint64
	for _, in := range occupants {
		if in.issued {
			got = append(got, in.seq)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("cycle %d: issueFast issued %v, the scan picks %v", s.now, got, want)
	}
	s.rename()
	s.fetch()
	s.now++
	return ""
}

// checkOracle runs one (trace, configuration) pair under the oracle.
func checkOracle(t *testing.T, tr *emu.Trace, cfg Config) {
	t.Helper()
	s, err := NewFromTrace(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !s.done() {
		if s.cfg.MaxCycles > 0 && s.now >= s.cfg.MaxCycles {
			t.Fatalf("%s/%s: cycle limit", tr.Name(), cfg.Name)
		}
		if diff := oracleStep(s); diff != "" {
			t.Fatalf("%s/%s (window %d): %s", tr.Name(), cfg.Name, cfg.ROBSize, diff)
		}
	}
	s.res.Cycles = s.now
	ref, err := NewFromTrace(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.res, want) {
		t.Fatalf("%s/%s (window %d): stepped run differs from Run\nstepped: %+v\nRun:     %+v",
			tr.Name(), cfg.Name, cfg.ROBSize, s.res, want)
	}
}

// oracleInput is one recorded trace the oracle replays; wide adds the
// 256-entry window to its configurations.
type oracleInput struct {
	name  string
	trace *emu.Trace
	wide  bool
}

// TestSchedulerMatchesScanOracle checks the event-driven scheduler against
// the scan on every input the simulator is driven with: all benchmarks, the
// stress suite, the committed scenario corpus (bench/corpus) and the
// committed traces (bench/traces), under all five configuration kinds at the
// 128-entry window, and on a subset at the 256-entry window.
func TestSchedulerMatchesScanOracle(t *testing.T) {
	var inputs []oracleInput
	record := func(name string, p *program.Program, err error, wide bool) {
		if err == nil {
			var tr *emu.Trace
			if tr, err = emu.RecordTrace(p, 0); err == nil {
				inputs = append(inputs, oracleInput{name: name, trace: tr, wide: wide})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range workload.Names() {
		p, err := workload.Generate(name, workload.Options{Iterations: 24})
		record("benchmark/"+name, p, err, i%8 == 0)
	}
	for i, sc := range workload.StressScenarios() {
		p, err := workload.GenerateScenario(sc, workload.Options{Iterations: 40})
		record(sc.Name, p, err, i == 0)
	}
	entries, err := corpus.LoadDir("../../bench/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range corpus.Scenarios(entries) {
		p, err := workload.GenerateScenario(sc, workload.Options{Iterations: 40})
		record("corpus/"+sc.Name, p, err, i == 0)
	}
	traces, err := traceio.LoadDir("../../bench/traces")
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range traces {
		tr, _, err := traceio.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, oracleInput{name: "trace/" + e.RefName(), trace: tr, wide: i == 0})
	}

	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range allConfigs() {
				checkOracle(t, in.trace, cfg)
				if in.wide {
					checkOracle(t, in.trace, cfg.WithWindow(256))
				}
			}
		})
	}
}
