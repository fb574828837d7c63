package program

import (
	"testing"

	"repro/internal/isa"
)

func buildLoop(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("loop-test")
	b.MovImm(isa.IntReg(1), 10).
		MovImm(isa.IntReg(2), int64(DataBase)).
		Label("loop").
		Store(isa.IntReg(1), isa.IntReg(2), 0, 8).
		Load(isa.IntReg(3), isa.IntReg(2), 0, 8).
		AddImm(isa.IntReg(1), isa.IntReg(1), -1).
		Branch(isa.BrNEZ, isa.IntReg(1), "loop").
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderAssignsSequentialPCs(t *testing.T) {
	p := buildLoop(t)
	for i := range p.Insts {
		want := CodeBase + uint64(i)*isa.InstBytes
		if p.Insts[i].PC != want {
			t.Errorf("inst %d PC = %#x, want %#x", i, p.Insts[i].PC, want)
		}
	}
}

func TestBuilderResolvesBackwardReference(t *testing.T) {
	p := buildLoop(t)
	loopPC, ok := p.Labels["loop"]
	if !ok {
		t.Fatal("missing label loop")
	}
	var br *isa.Inst
	for i := range p.Insts {
		if p.Insts[i].Op == isa.OpBranch {
			br = &p.Insts[i]
		}
	}
	if br == nil {
		t.Fatal("no branch found")
	}
	if br.Target != loopPC {
		t.Errorf("branch target = %#x, want %#x", br.Target, loopPC)
	}
}

func TestBuilderResolvesForwardReference(t *testing.T) {
	b := NewBuilder("fwd")
	b.MovImm(isa.IntReg(1), 0).
		Branch(isa.BrEQZ, isa.IntReg(1), "skip").
		MovImm(isa.IntReg(2), 1).
		Label("skip").
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Insts[1].Target != p.Labels["skip"] {
		t.Errorf("forward branch target = %#x, want %#x", p.Insts[1].Target, p.Labels["skip"])
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jump("nowhere").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x").Nop().Label("x").Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for duplicate label")
	}
}

func TestBuilderEmptyProgram(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("expected error for empty program")
	}
}

func TestAt(t *testing.T) {
	p := buildLoop(t)
	if in := p.At(p.Entry); in == nil || in.Op != isa.OpALU {
		t.Errorf("At(entry) = %v", in)
	}
	if in := p.At(p.Entry + 2); in != nil {
		t.Error("misaligned PC should return nil")
	}
	if in := p.At(CodeBase - isa.InstBytes); in != nil {
		t.Error("PC below code base should return nil")
	}
	end := CodeBase + uint64(p.Len())*isa.InstBytes
	if in := p.At(end); in != nil {
		t.Error("PC past end should return nil")
	}
}

func TestValidateRejectsOutOfRangeTarget(t *testing.T) {
	p := buildLoop(t)
	p.Insts[len(p.Insts)-2].Target = CodeBase + 1<<20
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error for out-of-range target")
	}
}

func TestCallRetHelpers(t *testing.T) {
	b := NewBuilder("callret")
	b.Call("fn").
		Halt().
		Label("fn").
		AddImm(isa.IntReg(1), isa.IntReg(1), 1).
		Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Insts[0].Op != isa.OpCall || p.Insts[0].Dst != isa.RegRA {
		t.Errorf("call should write RA, got %+v", p.Insts[0])
	}
	if p.Insts[0].Target != p.Labels["fn"] {
		t.Errorf("call target = %#x, want %#x", p.Insts[0].Target, p.Labels["fn"])
	}
	last := p.Insts[len(p.Insts)-1]
	if last.Op != isa.OpRet || last.Src1 != isa.RegRA {
		t.Errorf("ret should read RA, got %+v", last)
	}
}

func TestInitData(t *testing.T) {
	b := NewBuilder("data")
	b.InitData(DataBase, 8, 42).Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(p.InitData) != 1 || p.InitData[0].Value != 42 {
		t.Errorf("InitData = %+v", p.InitData)
	}
}

func TestBuilderErrSticky(t *testing.T) {
	b := NewBuilder("err")
	b.Label("a").Label("a")
	if b.Err() == nil {
		t.Fatal("expected sticky error")
	}
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should report sticky error")
	}
}

func TestHelpersEmitValidInstructions(t *testing.T) {
	b := NewBuilder("helpers")
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	f1, f2, f3 := isa.FPReg(1), isa.FPReg(2), isa.FPReg(3)
	b.MovImm(r1, 5).AddImm(r2, r1, 3).Add(r3, r1, r2).Sub(r3, r1, r2).
		And(r3, r1, r2).Xor(r3, r1, r2, 7).ShiftL(r3, r1, 2).ShiftR(r3, r1, 2).
		CmpLT(r3, r1, r2, 0).CmpEQ(r3, r1, r2, 0).Mul(r3, r1, r2).
		FAdd(f3, f1, f2).FMul(f3, f1, f2).
		Load(r3, r1, 0, 1).LoadSigned(r3, r1, 0, 2).LoadFP(f1, r1, 0).LoadFP8(f1, r1, 8).
		Store(r2, r1, 0, 4).StoreFP(f1, r1, 0).
		Nop().Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := range p.Insts {
		if err := p.Insts[i].Validate(); err != nil {
			t.Errorf("helper-emitted inst %d invalid: %v", i, err)
		}
	}
}
