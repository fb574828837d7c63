package pipeline

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/stats"
)

// simpleLoop builds a program with iters iterations of a store immediately
// followed by a dependent load of the same address (classic in-window
// store-load communication), plus some ALU filler.
func simpleLoop(iters int) *program.Program {
	b := program.NewBuilder("simple-loop")
	r1, r2, r3, r4 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4)
	b.MovImm(r1, int64(iters)).
		MovImm(r2, int64(program.DataBase)).
		MovImm(r4, 0).
		Label("loop").
		Add(r4, r4, r1).
		Store(r4, r2, 0, 8).
		Load(r3, r2, 0, 8).
		Add(r4, r4, r3).
		AddImm(r1, r1, -1).
		Branch(isa.BrNEZ, r1, "loop").
		Halt()
	return b.MustBuild()
}

// independentLoop builds a loop whose loads never communicate with stores
// (loads and stores touch disjoint addresses).
func independentLoop(iters int) *program.Program {
	b := program.NewBuilder("independent-loop")
	r1, r2, r3, r4 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4)
	b.MovImm(r1, int64(iters)).
		MovImm(r2, int64(program.DataBase)).
		MovImm(r4, int64(program.HeapBase)).
		InitData(program.HeapBase, 8, 7).
		Label("loop").
		Load(r3, r4, 0, 8).
		Add(r3, r3, r1).
		Store(r3, r2, 0, 8).
		AddImm(r1, r1, -1).
		Branch(isa.BrNEZ, r1, "loop").
		Halt()
	return b.MustBuild()
}

// partialStoreLoop builds the g721.e-style pattern: two 1-byte stores feeding
// a 2-byte load (the partial-store case SMB cannot bypass).
func partialStoreLoop(iters int) *program.Program {
	b := program.NewBuilder("partial-store-loop")
	r1, r2, r3, r4 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4)
	b.MovImm(r1, int64(iters)).
		MovImm(r2, int64(program.DataBase)).
		MovImm(r4, 0x55).
		Label("loop").
		Store(r4, r2, 0, 1).
		Store(r4, r2, 1, 1).
		Load(r3, r2, 0, 2).
		Add(r4, r4, r3).
		AddImm(r1, r1, -1).
		Branch(isa.BrNEZ, r1, "loop").
		Halt()
	return b.MustBuild()
}

func runConfig(t *testing.T, p *program.Program, cfg Config) stats.Run {
	t.Helper()
	sim, err := New(p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run(%s/%s): %v", p.Name, cfg.Name, err)
	}
	return res
}

// allConfigs returns the five machines at the 128-entry window.
func allConfigs() []Config {
	var cfgs []Config
	for k := range numKinds {
		cfgs = append(cfgs, ConfigFor(k, 0))
	}
	return cfgs
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range allConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := ConfigFor(Baseline, 0)
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = ConfigFor(Baseline, 0)
	bad.PhysRegs = 64
	if err := bad.Validate(); err == nil {
		t.Error("64 physical registers accepted")
	}
	for _, k := range []Kind{-1, numKinds} {
		if err := ConfigFor(k, 0).Validate(); err == nil {
			t.Errorf("unknown kind %d accepted", int(k))
		}
	}
}

func TestAllConfigsRunToCompletion(t *testing.T) {
	p := simpleLoop(500)
	// All instructions must commit under every configuration: the dynamic
	// instruction count is fixed by the program.
	var want uint64
	for _, cfg := range allConfigs() {
		res := runConfig(t, p, cfg)
		if want == 0 {
			want = res.Committed
		}
		if res.Committed != want {
			t.Errorf("%s committed %d instructions, others committed %d", cfg.Name, res.Committed, want)
		}
		if res.Committed == 0 || res.Cycles == 0 {
			t.Errorf("%s: empty result %+v", cfg.Name, res)
		}
		if res.CommittedLoads != 500 {
			t.Errorf("%s: committed loads = %d, want 500", cfg.Name, res.CommittedLoads)
		}
		if res.CommittedStores != 500 {
			t.Errorf("%s: committed stores = %d, want 500", cfg.Name, res.CommittedStores)
		}
	}
}

func TestInWindowCommunicationDetected(t *testing.T) {
	res := runConfig(t, simpleLoop(300), ConfigFor(Baseline, 0))
	if res.InWindowComm < 290 {
		t.Errorf("in-window communication = %d / %d loads, want nearly all", res.InWindowComm, res.CommittedLoads)
	}
	res = runConfig(t, independentLoop(300), ConfigFor(Baseline, 0))
	if res.InWindowComm != 0 {
		t.Errorf("independent loop should have no communication, got %d", res.InWindowComm)
	}
}

func TestBaselineForwardsThroughStoreQueue(t *testing.T) {
	res := runConfig(t, simpleLoop(300), ConfigFor(Baseline, 0))
	if res.SQForwards == 0 {
		t.Error("baseline should forward store values through the store queue")
	}
	if res.Flushes > 20 {
		t.Errorf("baseline with StoreSets should have few flushes, got %d", res.Flushes)
	}
}

func TestNoSQBypassesCommunicatingLoads(t *testing.T) {
	res := runConfig(t, simpleLoop(300), ConfigFor(NoSQNoDelay, 0))
	if res.BypassedLoads < 200 {
		t.Errorf("NoSQ should bypass most communicating loads after warm-up, got %d of %d",
			res.BypassedLoads, res.CommittedLoads)
	}
	if res.SQForwards != 0 {
		t.Error("NoSQ has no store queue to forward from")
	}
	// Mis-predictions only during warm-up.
	if res.BypassMispredictions > 20 {
		t.Errorf("too many bypass mispredictions on a stable pattern: %d", res.BypassMispredictions)
	}
}

func TestNoSQIndependentLoadsDoNotBypass(t *testing.T) {
	res := runConfig(t, independentLoop(300), ConfigFor(NoSQNoDelay, 0))
	if res.BypassedLoads != 0 {
		t.Errorf("independent loads must not bypass, got %d", res.BypassedLoads)
	}
	if res.BypassMispredictions != 0 {
		t.Errorf("independent loads should never mispredict, got %d", res.BypassMispredictions)
	}
	if res.Flushes != 0 {
		t.Errorf("independent loads should never flush, got %d", res.Flushes)
	}
}

func TestPartialStorePatternNoDelayVsDelay(t *testing.T) {
	p := partialStoreLoop(300)
	noDelay := runConfig(t, p, ConfigFor(NoSQNoDelay, 0))
	withDelay := runConfig(t, p, ConfigFor(NoSQDelay, 0))
	if noDelay.BypassMispredictions == 0 {
		t.Error("partial-store communication should cause mispredictions without delay")
	}
	if withDelay.BypassMispredictions*5 > noDelay.BypassMispredictions {
		t.Errorf("delay should remove most partial-store mispredictions: %d -> %d",
			noDelay.BypassMispredictions, withDelay.BypassMispredictions)
	}
	if withDelay.DelayedLoads == 0 {
		t.Error("delay configuration should delay some loads")
	}
	if withDelay.Flushes*5 > noDelay.Flushes {
		t.Errorf("delay should remove most squashes: %d -> %d", noDelay.Flushes, withDelay.Flushes)
	}
	// On this tiny loop the delay wait and the squash penalty are of similar
	// magnitude; delay must at least not be dramatically slower.
	if withDelay.Cycles > noDelay.Cycles+noDelay.Cycles/5 {
		t.Errorf("delay dramatically slower than squashing: %d vs %d cycles",
			withDelay.Cycles, noDelay.Cycles)
	}
}

func TestPerfectSMBNeverMispredicts(t *testing.T) {
	for _, p := range []*program.Program{simpleLoop(300), independentLoop(300), partialStoreLoop(300)} {
		res := runConfig(t, p, ConfigFor(PerfectSMB, 0))
		if res.Flushes != 0 {
			t.Errorf("%s: perfect SMB flushed %d times", p.Name, res.Flushes)
		}
		if res.BypassMispredictions != 0 {
			t.Errorf("%s: perfect SMB mispredicted %d times", p.Name, res.BypassMispredictions)
		}
	}
}

func TestNoSQReducesDataCacheReads(t *testing.T) {
	p := simpleLoop(500)
	base := runConfig(t, p, ConfigFor(Baseline, 0))
	nosq := runConfig(t, p, ConfigFor(NoSQDelay, 0))
	if nosq.TotalDCacheReads() >= base.TotalDCacheReads() {
		t.Errorf("NoSQ should reduce data-cache reads on a bypass-heavy workload: %d vs %d",
			nosq.TotalDCacheReads(), base.TotalDCacheReads())
	}
}

func TestIdealBaselineNotSlowerThanRealistic(t *testing.T) {
	p := simpleLoop(500)
	ideal := runConfig(t, p, ConfigFor(IdealBaseline, 0))
	real := runConfig(t, p, ConfigFor(Baseline, 0))
	if ideal.Cycles > real.Cycles+5 {
		t.Errorf("perfect scheduling should not be slower: ideal %d vs realistic %d", ideal.Cycles, real.Cycles)
	}
}

func TestIPCWithinPhysicalLimits(t *testing.T) {
	for _, cfg := range allConfigs() {
		res := runConfig(t, simpleLoop(400), cfg)
		if ipc := res.IPC(); ipc <= 0 || ipc > float64(cfg.CommitWidth) {
			t.Errorf("%s: IPC %.2f outside (0, %d]", cfg.Name, ipc, cfg.CommitWidth)
		}
	}
}

func TestMaxInstsLimit(t *testing.T) {
	cfg := ConfigFor(Baseline, 0)
	cfg.MaxInsts = 100
	res := runConfig(t, simpleLoop(10000), cfg)
	if res.Committed != 100 {
		t.Errorf("committed %d, want exactly the 100-instruction limit", res.Committed)
	}
}

func TestWithWindowScaling(t *testing.T) {
	c := ConfigFor(Baseline, 0).WithWindow(256)
	if c.ROBSize != 256 || c.IQSize != 80 || c.SQSize != 48 || c.LQSize != 96 || c.PhysRegs != 320 {
		t.Errorf("scaled config = ROB %d IQ %d SQ %d LQ %d regs %d", c.ROBSize, c.IQSize, c.SQSize, c.LQSize, c.PhysRegs)
	}
	if bp := branchPredictor(c.ROBSize); bp.BimodalEntries != 4*4096 {
		t.Errorf("branch predictor should quadruple, got %d", bp.BimodalEntries)
	}
	if c.BypassPred.Entries != 2048 {
		t.Error("the bypassing predictor must not be enlarged with the window")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	// Scaling to the same size is a no-op.
	same := ConfigFor(Baseline, 0).WithWindow(128)
	if same.ROBSize != 128 || same.Name != "assoc-sq-storesets" {
		t.Error("WithWindow(same) should be a no-op")
	}
}

// TestBranchPredictorFollowsWindow: the predictor's tables grow by the
// window's squared ratio to 128 entries, rounded, which is a power of two at
// the windows the paper uses; every other window rounds down to one, so it
// builds a valid predictor. 224, 300, 384 and 448 are such windows, and a
// machine with each must simulate.
func TestBranchPredictorFollowsWindow(t *testing.T) {
	for w := 1; w <= 512; w++ {
		got := branchPredictor(w)
		if err := got.Validate(); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		f := float64(w) / 128
		if scale := max(1, int(f*f+0.5)); scale&(scale-1) == 0 {
			if want := bpred.DefaultConfig().Scale(scale); got != want {
				t.Errorf("window %d: predictor %+v, want scale %d: %+v", w, got, scale, want)
			}
		}
	}
	for _, w := range []int{224, 300, 384, 448} {
		cfg := ConfigFor(NoSQDelay, w)
		if res := runConfig(t, simpleLoop(100), cfg); res.CommittedLoads != 100 {
			t.Errorf("%s: committed %d loads, want 100", cfg.Name, res.CommittedLoads)
		}
	}
}

// TestWatchdogBoundAndCompletionRing pins the two sizes newSimulator derives
// from the fixed core's latencies, which no result shows: the deadlock
// watchdog's bound (stallLimit) and the completion ring's bucket count.
func TestWatchdogBoundAndCompletionRing(t *testing.T) {
	for _, c := range []struct {
		window   int
		sq, nosq uint64
	}{{128, 52_848, 53_136}, {256, 99_824, 100_368}} {
		for k := range numKinds {
			s := MustNew(simpleLoop(1), ConfigFor(k, c.window))
			want := c.nosq
			if k.storeQueue() {
				want = c.sq
			}
			if s.stallLimit != want || len(s.compBuckets) != 256 {
				t.Errorf("%s: stallLimit %d, ring %d buckets; want %d and 256",
					s.cfg.Name, s.stallLimit, len(s.compBuckets), want)
			}
		}
	}
}

func TestLargerWindowNotSlower(t *testing.T) {
	p := simpleLoop(500)
	small := runConfig(t, p, ConfigFor(Baseline, 0))
	large := runConfig(t, p, ConfigFor(Baseline, 256))
	if large.Cycles > small.Cycles+small.Cycles/10 {
		t.Errorf("256-entry window should not be much slower: %d vs %d", large.Cycles, small.Cycles)
	}
}

// TestCycleLimitError: a run that goes longer than the watchdog's bound
// without a commit fails with ErrCycleLimit. No correct run takes 10 cycles
// to commit its first instruction through a 5-stage front end and a 6-stage
// back end, so lowering the bound to 10 makes this run look deadlocked.
func TestCycleLimitError(t *testing.T) {
	sim := MustNew(simpleLoop(1000), ConfigFor(Baseline, 0))
	sim.stallLimit = 10
	if _, err := sim.Run(); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("Run error = %v, want ErrCycleLimit", err)
	}
}

// TestSVWEscapeFailsTheRun: a run that counts an SVW escape, a load that
// retired with a wrong value and did not re-execute, fails with ErrSVWEscape
// and gives the count. No correct run has one, so the test sets the counter;
// in a batch, only the member that counted it fails.
func TestSVWEscapeFailsTheRun(t *testing.T) {
	sim := MustNew(simpleLoop(100), ConfigFor(NoSQDelay, 0))
	sim.escapes = 3
	if _, err := sim.Run(); !errors.Is(err, ErrSVWEscape) || !strings.Contains(err.Error(), "3 retired loads") {
		t.Fatalf("Run error = %v, want ErrSVWEscape giving 3 loads", err)
	}
	tr, err := emu.RecordTrace(simpleLoop(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(tr, allConfigs())
	if err != nil {
		t.Fatal(err)
	}
	b.sims[1].escapes = 1
	_, errs := b.Run()
	for i, err := range errs {
		if (i == 1) != errors.Is(err, ErrSVWEscape) || i != 1 && err != nil {
			t.Errorf("batch member %d: error %v", i, err)
		}
	}
}

// TestNewReportsEmulatorFault: a program that runs past its last instruction
// faults in the emulator, and New must report that instead of simulating the
// instructions executed before the fault as a complete run.
func TestNewReportsEmulatorFault(t *testing.T) {
	b := program.NewBuilder("no-halt")
	r1 := isa.IntReg(1)
	b.AddImm(r1, r1, 1).AddImm(r1, r1, 1) // no Halt: execution runs off the end
	sim, err := New(b.MustBuild(), ConfigFor(NoSQDelay, 0))
	if err == nil {
		res, runErr := sim.Run()
		t.Fatalf("New accepted a program that runs past its end: committed %d, Run error %v", res.Committed, runErr)
	}
	if !strings.Contains(err.Error(), "outside program") {
		t.Errorf("New error = %v, want the emulator's pc-outside-program fault", err)
	}
}

func TestResultMetadata(t *testing.T) {
	res := runConfig(t, simpleLoop(50), ConfigFor(NoSQDelay, 0))
	if res.Benchmark != "simple-loop" || res.Config != "nosq-delay" {
		t.Errorf("metadata = %q/%q", res.Benchmark, res.Config)
	}
}
