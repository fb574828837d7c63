package pipeline

import (
	"strings"
	"testing"

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

func allConfigs() []Config {
	return []Config{
		IdealBaselineConfig(),
		BaselineConfig(),
		NoSQConfig(false),
		NoSQConfig(true),
		PerfectSMBConfig(),
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range allConfigs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultConfig()
	bad.PhysRegs = 64
	if err := bad.Validate(); err == nil {
		t.Error("64 physical registers accepted")
	}
	bad = NoSQConfig(true)
	bad.Bypass = BypassNone
	if err := bad.Validate(); err == nil {
		t.Error("NoSQ without bypassing accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if LSQAssociative.String() == "" || LSQNone.String() == "" ||
		SchedNaive.String() == "" || SchedStoreSets.String() == "" || SchedPerfect.String() == "" ||
		BypassNone.String() == "" || BypassPredictor.String() == "" || BypassPerfect.String() == "" {
		t.Error("policy strings must be non-empty")
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
	res := runConfig(t, simpleLoop(300), BaselineConfig())
	if res.InWindowComm < 290 {
		t.Errorf("in-window communication = %d / %d loads, want nearly all", res.InWindowComm, res.CommittedLoads)
	}
	res = runConfig(t, independentLoop(300), BaselineConfig())
	if res.InWindowComm != 0 {
		t.Errorf("independent loop should have no communication, got %d", res.InWindowComm)
	}
}

func TestBaselineForwardsThroughStoreQueue(t *testing.T) {
	res := runConfig(t, simpleLoop(300), BaselineConfig())
	if res.SQForwards == 0 {
		t.Error("baseline should forward store values through the store queue")
	}
	if res.Flushes > 20 {
		t.Errorf("baseline with StoreSets should have few flushes, got %d", res.Flushes)
	}
}

func TestNoSQBypassesCommunicatingLoads(t *testing.T) {
	res := runConfig(t, simpleLoop(300), NoSQConfig(false))
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
	res := runConfig(t, independentLoop(300), NoSQConfig(false))
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
	noDelay := runConfig(t, p, NoSQConfig(false))
	withDelay := runConfig(t, p, NoSQConfig(true))
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
		res := runConfig(t, p, PerfectSMBConfig())
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
	base := runConfig(t, p, BaselineConfig())
	nosq := runConfig(t, p, NoSQConfig(true))
	if nosq.TotalDCacheReads() >= base.TotalDCacheReads() {
		t.Errorf("NoSQ should reduce data-cache reads on a bypass-heavy workload: %d vs %d",
			nosq.TotalDCacheReads(), base.TotalDCacheReads())
	}
}

func TestIdealBaselineNotSlowerThanRealistic(t *testing.T) {
	p := simpleLoop(500)
	ideal := runConfig(t, p, IdealBaselineConfig())
	real := runConfig(t, p, BaselineConfig())
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
	cfg := BaselineConfig()
	cfg.MaxInsts = 100
	res := runConfig(t, simpleLoop(10000), cfg)
	if res.Committed != 100 {
		t.Errorf("committed %d, want exactly the 100-instruction limit", res.Committed)
	}
}

func TestWithWindowScaling(t *testing.T) {
	c := BaselineConfig().WithWindow(256)
	if c.ROBSize != 256 || c.IQSize != 80 || c.SQSize != 48 || c.LQSize != 96 || c.PhysRegs != 320 {
		t.Errorf("scaled config = ROB %d IQ %d SQ %d LQ %d regs %d", c.ROBSize, c.IQSize, c.SQSize, c.LQSize, c.PhysRegs)
	}
	if c.BPred.BimodalEntries != 4*4096 {
		t.Errorf("branch predictor should quadruple, got %d", c.BPred.BimodalEntries)
	}
	if c.BypassPred.Entries != 2048 {
		t.Error("the bypassing predictor must not be enlarged with the window")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
	// Scaling to the same size is a no-op.
	same := BaselineConfig().WithWindow(128)
	if same.ROBSize != 128 || same.Name != "assoc-sq-storesets" {
		t.Error("WithWindow(same) should be a no-op")
	}
}

func TestLargerWindowNotSlower(t *testing.T) {
	p := simpleLoop(500)
	small := runConfig(t, p, BaselineConfig())
	large := runConfig(t, p, BaselineConfig().WithWindow(256))
	if large.Cycles > small.Cycles+small.Cycles/10 {
		t.Errorf("256-entry window should not be much slower: %d vs %d", large.Cycles, small.Cycles)
	}
}

func TestCycleLimitError(t *testing.T) {
	cfg := BaselineConfig()
	cfg.MaxCycles = 10
	sim := MustNew(simpleLoop(1000), cfg)
	if _, err := sim.Run(); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

// TestNewReportsEmulatorFault: a program that runs past its last instruction
// faults in the emulator, and New must report that instead of simulating the
// instructions executed before the fault as a complete run.
func TestNewReportsEmulatorFault(t *testing.T) {
	b := program.NewBuilder("no-halt")
	r1 := isa.IntReg(1)
	b.AddImm(r1, r1, 1).AddImm(r1, r1, 1) // no Halt: execution runs off the end
	sim, err := New(b.MustBuild(), NoSQConfig(true))
	if err == nil {
		res, runErr := sim.Run()
		t.Fatalf("New accepted a program that runs past its end: committed %d, Run error %v", res.Committed, runErr)
	}
	if !strings.Contains(err.Error(), "outside program") {
		t.Errorf("New error = %v, want the emulator's pc-outside-program fault", err)
	}
}

func TestResultMetadata(t *testing.T) {
	res := runConfig(t, simpleLoop(50), NoSQConfig(true))
	if res.Benchmark != "simple-loop" || res.Config != "nosq-delay" {
		t.Errorf("metadata = %q/%q", res.Benchmark, res.Config)
	}
}
