package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegConstructors(t *testing.T) {
	if got := IntReg(0); got != 0 {
		t.Errorf("IntReg(0) = %v, want r0", got)
	}
	if got := IntReg(31); got != RegZero {
		t.Errorf("IntReg(31) = %v, want zero register", got)
	}
	if got := FPReg(0); got != FPBase {
		t.Errorf("FPReg(0) = %v, want %v", got, FPBase)
	}
	if got := FPReg(31); int(got) != NumArchRegs-1 {
		t.Errorf("FPReg(31) = %d, want %d", got, NumArchRegs-1)
	}
}

func TestRegConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { IntReg(-1) },
		func() { IntReg(32) },
		func() { FPReg(-1) },
		func() { FPReg(32) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRegPredicates(t *testing.T) {
	if RegNone.Valid() {
		t.Error("RegNone should not be valid")
	}
	if !RegZero.Valid() {
		t.Error("RegZero should be valid")
	}
}

func TestRegString(t *testing.T) {
	tests := []struct {
		r    Reg
		want string
	}{
		{RegNone, "-"},
		{IntReg(5), "r5"},
		{FPReg(7), "f7"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Reg(%d).String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestOpString(t *testing.T) {
	for op := OpNop; op < numOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op?") {
			t.Errorf("op %d has no name", op)
		}
	}
	if !strings.HasPrefix(Op(200).String(), "op?") {
		t.Error("unknown op should render as op?N")
	}
}

func TestInstPredicates(t *testing.T) {
	ld := Inst{Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), MemSize: 4}
	st := Inst{Op: OpStore, Src1: IntReg(2), Src2: IntReg(3), MemSize: 8}
	br := Inst{Op: OpBranch, Src1: IntReg(1)}
	call := Inst{Op: OpCall, Dst: RegRA}
	ret := Inst{Op: OpRet, Src1: RegRA}
	alu := Inst{Op: OpALU, Dst: IntReg(1), Src1: IntReg(2), Src2: IntReg(3)}

	if !ld.IsLoad() || ld.IsStore() || !ld.IsMem() || ld.IsBranch() {
		t.Error("load predicates wrong")
	}
	if !st.IsStore() || st.IsLoad() || !st.IsMem() {
		t.Error("store predicates wrong")
	}
	if !br.IsBranch() || !br.IsCondBranch() || br.IsCall() || br.IsReturn() {
		t.Error("branch predicates wrong")
	}
	if !call.IsBranch() || !call.IsCall() || call.IsCondBranch() {
		t.Error("call predicates wrong")
	}
	if !ret.IsBranch() || !ret.IsReturn() {
		t.Error("return predicates wrong")
	}
	if alu.IsBranch() || alu.IsMem() {
		t.Error("alu predicates wrong")
	}
}

func TestHasDst(t *testing.T) {
	if (&Inst{Op: OpALU, Dst: RegZero}).HasDst() {
		t.Error("writes to the zero register should not count as having a destination")
	}
	if (&Inst{Op: OpALU, Dst: RegNone}).HasDst() {
		t.Error("RegNone destination should not count")
	}
	if !(&Inst{Op: OpALU, Dst: IntReg(4)}).HasDst() {
		t.Error("r4 destination should count")
	}
}

func TestNextPC(t *testing.T) {
	in := Inst{PC: 0x1000}
	if got := in.NextPC(); got != 0x1004 {
		t.Errorf("NextPC = %#x, want 0x1004", got)
	}
}

func TestExecLatency(t *testing.T) {
	tests := []struct {
		op   Op
		want int
	}{
		{OpALU, 1},
		{OpLoad, 1},
		{OpStore, 1},
		{OpMul, 3},
		{OpFPU, 4},
		{OpBranch, 1},
	}
	for _, tt := range tests {
		in := Inst{Op: tt.op}
		if got := in.ExecLatency(); got != tt.want {
			t.Errorf("ExecLatency(%v) = %d, want %d", tt.op, got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	valid := []Inst{
		{Op: OpNop},
		{Op: OpALU, Dst: IntReg(1), Src1: IntReg(2), Src2: IntReg(3)},
		{Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), MemSize: 1},
		{Op: OpLoad, Dst: FPReg(1), Src1: IntReg(2), MemSize: 4, FPConv: true},
		{Op: OpStore, Src1: IntReg(2), Src2: IntReg(3), MemSize: 8},
		{Op: OpRet, Src1: RegRA},
	}
	for i, in := range valid {
		if err := in.Validate(); err != nil {
			t.Errorf("valid[%d] rejected: %v", i, err)
		}
	}
	invalid := []Inst{
		{Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), MemSize: 3},
		{Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), MemSize: 0},
		{Op: OpLoad, Dst: RegNone, Src1: IntReg(2), MemSize: 4},
		{Op: OpLoad, Dst: IntReg(1), Src1: RegNone, MemSize: 4},
		{Op: OpStore, Src1: IntReg(2), Src2: RegNone, MemSize: 4},
		{Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), MemSize: 8, FPConv: true},
		{Op: OpRet, Src1: RegNone},
		{Op: Op(100)},
	}
	for i, in := range invalid {
		if err := in.Validate(); err == nil {
			t.Errorf("invalid[%d] accepted: %+v", i, in)
		}
	}
}

func TestInstString(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{PC: 0x100, Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), Imm: 8, MemSize: 4}, "ld4 r1, 8(r2)"},
		{Inst{PC: 0x104, Op: OpStore, Src1: IntReg(2), Src2: IntReg(3), Imm: -4, MemSize: 8}, "st8 r3, -4(r2)"},
		{Inst{PC: 0x108, Op: OpCall, Dst: RegRA, Target: 0x200}, "call 0x200"},
		{Inst{PC: 0x10c, Op: OpHalt}, "halt"},
		{Inst{PC: 0x110, Op: OpALU, Fn: ALUAdd, Dst: IntReg(1), Src1: IntReg(2), Src2: IntReg(3)}, "alu"},
		{Inst{PC: 0x114, Op: OpJump, Target: 0x80}, "jmp"},
		{Inst{PC: 0x118, Op: OpRet, Src1: RegRA}, "ret"},
		{Inst{PC: 0x11c, Op: OpBranch, Src1: IntReg(1), Target: 0x90}, "br"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); !strings.Contains(got, tt.want) {
			t.Errorf("String() = %q, want it to contain %q", got, tt.want)
		}
	}
}

// Property: every generated register index round-trips through the
// constructor and String without colliding between the int and FP spaces.
func TestRegSpacesDisjointProperty(t *testing.T) {
	f := func(i uint8) bool {
		ii := int(i % NumIntRegs)
		fi := int(i % NumFPRegs)
		return IntReg(ii) != FPReg(fi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Validate never accepts a memory instruction with a size other
// than 1, 2, 4, or 8.
func TestValidateMemSizeProperty(t *testing.T) {
	f := func(size uint8, isLoad bool) bool {
		in := Inst{Op: OpStore, Src1: IntReg(1), Src2: IntReg(2), MemSize: size}
		if isLoad {
			in = Inst{Op: OpLoad, Dst: IntReg(3), Src1: IntReg(1), MemSize: size}
		}
		err := in.Validate()
		legal := size == 1 || size == 2 || size == 4 || size == 8
		return legal == (err == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
