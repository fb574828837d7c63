package bpred

import (
	"testing"

	"repro/internal/isa"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.BimodalEntries = 1000 // not a power of two
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two table accepted")
	}
	bad = DefaultConfig()
	bad.RASEntries = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero RAS accepted")
	}
	bad = DefaultConfig()
	bad.HistoryBits = 40
	if err := bad.Validate(); err == nil {
		t.Error("oversized history accepted")
	}
}

func TestScale(t *testing.T) {
	c := DefaultConfig().Scale(4)
	if c.BimodalEntries != 4*4096 || c.BTBEntries != 4*2048 {
		t.Errorf("Scale(4) = %+v", c)
	}
	if got := DefaultConfig().Scale(0); got.BimodalEntries != 4096 {
		t.Error("Scale(<1) should clamp to 1")
	}
}

func condBranch(pc uint64, target uint64) *isa.Inst {
	return &isa.Inst{PC: pc, Op: isa.OpBranch, Br: isa.BrNEZ, Src1: isa.IntReg(1), Target: target}
}

func TestLearnsAlwaysTakenBranch(t *testing.T) {
	p := New(DefaultConfig())
	br := condBranch(0x400100, 0x400000)
	mis := 0
	for i := 0; i < 100; i++ {
		pred := p.Predict(br)
		if !pred.Taken {
			mis++
		}
		p.Resolve(br, true, br.Target, pred)
	}
	if mis > 3 {
		t.Errorf("always-taken branch mispredicted %d/100 times", mis)
	}
}

func TestLearnsAlternatingBranchViaGshare(t *testing.T) {
	p := New(DefaultConfig())
	br := condBranch(0x400200, 0x400000)
	mis := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		pred := p.Predict(br)
		if pred.Taken != taken {
			mis++
		}
		p.Resolve(br, taken, br.Target, pred)
	}
	// After warm-up the gshare component should capture the alternation.
	if rate := float64(mis) / 400; rate > 0.25 {
		t.Errorf("alternating branch misprediction rate %.2f too high", rate)
	}
}

func TestBTBLearnsTargets(t *testing.T) {
	p := New(DefaultConfig())
	br := condBranch(0x400300, 0x400080)
	pred := p.Predict(br)
	p.Resolve(br, true, 0x400080, pred)
	// Make the direction predictable-taken first.
	for i := 0; i < 4; i++ {
		pred = p.Predict(br)
		p.Resolve(br, true, 0x400080, pred)
	}
	pred = p.Predict(br)
	if !pred.Taken || pred.Target != 0x400080 {
		t.Errorf("prediction after training = %+v", pred)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := New(DefaultConfig())
	call := &isa.Inst{PC: 0x400400, Op: isa.OpCall, Dst: isa.RegRA, Target: 0x400800}
	ret := &isa.Inst{PC: 0x400820, Op: isa.OpRet, Src1: isa.RegRA}
	p.Predict(call)
	pred := p.Predict(ret)
	if !pred.FromRAS || pred.Target != call.NextPC() {
		t.Errorf("return prediction = %+v, want target %#x from RAS", pred, call.NextPC())
	}
}

func TestNestedCallsUseStackOrder(t *testing.T) {
	p := New(DefaultConfig())
	c1 := &isa.Inst{PC: 0x400400, Op: isa.OpCall, Dst: isa.RegRA, Target: 0x400800}
	c2 := &isa.Inst{PC: 0x400810, Op: isa.OpCall, Dst: isa.RegRA, Target: 0x400900}
	ret := &isa.Inst{PC: 0x400910, Op: isa.OpRet, Src1: isa.RegRA}
	p.Predict(c1)
	p.Predict(c2)
	if pred := p.Predict(ret); pred.Target != c2.NextPC() {
		t.Errorf("inner return target = %#x, want %#x", pred.Target, c2.NextPC())
	}
	if pred := p.Predict(ret); pred.Target != c1.NextPC() {
		t.Errorf("outer return target = %#x, want %#x", pred.Target, c1.NextPC())
	}
}

func TestMispredictRepairsHistory(t *testing.T) {
	p := New(DefaultConfig())
	br := condBranch(0x400500, 0x400000)
	// Train strongly not-taken.
	for i := 0; i < 10; i++ {
		pred := p.Predict(br)
		p.Resolve(br, false, br.Target, pred)
	}
	pred := p.Predict(br)
	if pred.Taken {
		t.Fatal("expected not-taken prediction after training")
	}
	p.Resolve(br, true, br.Target, pred) // actual taken: mispredict
	// History's low bit should reflect the actual outcome after repair.
	if p.history&1 != 1 {
		t.Error("history not repaired to actual outcome")
	}
}

func TestJumpResolveTrainsBTB(t *testing.T) {
	p := New(DefaultConfig())
	j := &isa.Inst{PC: 0x400600, Op: isa.OpJump, Target: 0x400700}
	pred := p.Predict(j)
	if pred.Target != 0 {
		t.Error("cold BTB should not produce a target")
	}
	p.Resolve(j, true, 0x400700, pred)
	if pred := p.Predict(j); pred.Target != 0x400700 {
		t.Errorf("trained jump target = %#x", pred.Target)
	}
}

func TestManyBranchesNoInterferenceCollapse(t *testing.T) {
	// Many distinct always-taken branches should all become predictable.
	p := New(DefaultConfig())
	var mis int
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			br := condBranch(0x400000+uint64(i)*64, 0x400000)
			pred := p.Predict(br)
			if round > 2 && !pred.Taken {
				mis++
			}
			p.Resolve(br, true, br.Target, pred)
		}
	}
	if mis > 50 {
		t.Errorf("too many steady-state mispredictions: %d", mis)
	}
}
