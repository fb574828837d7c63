package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		parsed, err := KindByName(name)
		if err != nil || parsed != k {
			t.Errorf("KindByName(%q) = %v, %v", name, parsed, err)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Error("bogus configuration accepted")
	}
}

func TestConfigForWindow(t *testing.T) {
	cfg := ConfigFor(NoSQDelay, 256)
	if cfg.ROBSize != 256 {
		t.Errorf("ROBSize = %d, want 256", cfg.ROBSize)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	if got := ConfigFor(Baseline, 0).ROBSize; got != 128 {
		t.Errorf("default window = %d, want 128", got)
	}
}

func TestSimulateBenchmark(t *testing.T) {
	run, err := Simulate("gsm.e", NoSQDelay, Options{Iterations: 20})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if run.Committed == 0 || run.Cycles == 0 {
		t.Errorf("empty run: %+v", run)
	}
	if run.Benchmark != "gsm.e" || run.Config != "nosq-delay" {
		t.Errorf("metadata: %q/%q", run.Benchmark, run.Config)
	}
}

func TestSimulateUnknownBenchmark(t *testing.T) {
	if _, err := Simulate("nope", Baseline, Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSimulateMaxInsts(t *testing.T) {
	run, err := Simulate("gzip", Baseline, Options{Iterations: 200, MaxInsts: 500})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if run.Committed != 500 {
		t.Errorf("committed %d, want 500", run.Committed)
	}
}

func TestSimulateProgramCustom(t *testing.T) {
	b := program.NewBuilder("tiny")
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 99).
		Store(r2, r1, 0, 8).
		Load(isa.IntReg(3), r1, 0, 8).
		Halt()
	run, err := SimulateProgram(b.MustBuild(), ConfigFor(NoSQDelay, 0))
	if err != nil {
		t.Fatalf("SimulateProgram: %v", err)
	}
	if run.CommittedLoads != 1 || run.CommittedStores != 1 {
		t.Errorf("loads/stores = %d/%d", run.CommittedLoads, run.CommittedStores)
	}
}

// TestSimulateProgramReportsEmulatorFault: a program that runs past its last
// instruction is an error, not a successful run of the instructions executed
// before the fault.
func TestSimulateProgramReportsEmulatorFault(t *testing.T) {
	b := program.NewBuilder("no-halt")
	b.MovImm(isa.IntReg(1), 7) // no Halt: execution runs off the end
	run, err := SimulateProgram(b.MustBuild(), ConfigFor(NoSQDelay, 0))
	if err == nil {
		t.Fatalf("SimulateProgram returned a %d-instruction run and no error", run.Committed)
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 47 {
		t.Errorf("Benchmarks() returned %d names", len(Benchmarks()))
	}
	if len(SelectedBenchmarks()) == 0 {
		t.Error("SelectedBenchmarks() empty")
	}
}
