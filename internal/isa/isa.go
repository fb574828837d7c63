// Package isa defines SimISA, the Alpha-like 64-bit RISC instruction set used
// by the NoSQ reproduction.
//
// SimISA is deliberately small but covers everything the NoSQ mechanisms care
// about: integer ALU operations of several latency classes, loads and stores
// of 1, 2, 4 and 8 bytes with sign- or zero-extension, single-precision
// floating-point memory operations that convert between the 32-bit in-memory
// format and a 64-bit in-register format (mirroring Alpha lds/sts), and the
// control-flow operations (conditional branches, jumps, calls, returns) needed
// to exercise path-sensitive prediction.
package isa

import "fmt"

// Reg names an architectural register. SimISA has 32 integer registers
// (R0..R31) and 32 floating-point registers (F0..F31). R31 is hardwired to
// zero, as on Alpha.
type Reg uint8

// Architectural register constants.
const (
	// RegNone marks an absent operand.
	RegNone Reg = 255
	// RegZero is the hardwired zero register (R31).
	RegZero Reg = 31
	// NumIntRegs is the number of integer architectural registers.
	NumIntRegs = 32
	// NumFPRegs is the number of floating-point architectural registers.
	NumFPRegs = 32
	// NumArchRegs is the total number of architectural registers.
	NumArchRegs = NumIntRegs + NumFPRegs
	// FPBase is the register index of F0.
	FPBase Reg = 32
	// RegSP is the conventional stack pointer register.
	RegSP Reg = 30
	// RegRA is the conventional return-address register.
	RegRA Reg = 26
)

// IntReg returns the integer register with the given index (0..31).
func IntReg(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return Reg(i)
}

// FPReg returns the floating-point register with the given index (0..31).
func FPReg(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return FPBase + Reg(i)
}

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r != RegNone && int(r) < NumArchRegs }

// String implements fmt.Stringer.
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r < FPBase:
		return fmt.Sprintf("r%d", r)
	case int(r) < NumArchRegs:
		return fmt.Sprintf("f%d", r-FPBase)
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

// Op enumerates SimISA operations.
type Op uint8

// Operation constants.
const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpALU is a 1-cycle simple integer operation (add, sub, logic, compare,
	// shift). Semantics are selected by ALUFn.
	OpALU
	// OpMul is a multi-cycle complex integer operation.
	OpMul
	// OpFPU is a floating point arithmetic operation.
	OpFPU
	// OpLoad reads MemSize bytes from memory at Src1+Imm into Dst.
	OpLoad
	// OpStore writes the low MemSize bytes of Src2 to memory at Src1+Imm.
	OpStore
	// OpBranch is a conditional branch: taken if the condition (BrFn applied
	// to Src1) holds; target is Target.
	OpBranch
	// OpJump is an unconditional direct jump to Target.
	OpJump
	// OpCall is a direct call: writes the return address into Dst (by
	// convention RegRA) and jumps to Target.
	OpCall
	// OpRet is an indirect jump through Src1 (by convention RegRA), used as a
	// function return.
	OpRet
	// OpHalt stops emulation.
	OpHalt
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpALU:
		return "alu"
	case OpMul:
		return "mul"
	case OpFPU:
		return "fpu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpJump:
		return "jump"
	case OpCall:
		return "call"
	case OpRet:
		return "ret"
	case OpHalt:
		return "halt"
	default:
		return fmt.Sprintf("op?%d", uint8(o))
	}
}

// ALUFn selects the semantics of an OpALU/OpMul/OpFPU instruction.
type ALUFn uint8

// ALU function constants.
const (
	// ALUAdd computes Src1 + Src2 + Imm.
	ALUAdd ALUFn = iota
	// ALUSub computes Src1 - Src2.
	ALUSub
	// ALUAnd computes Src1 & Src2.
	ALUAnd
	// ALUOr computes Src1 | Src2.
	ALUOr
	// ALUXor computes Src1 ^ Src2 ^ Imm.
	ALUXor
	// ALUShiftL computes Src1 << (Imm & 63).
	ALUShiftL
	// ALUShiftR computes Src1 >> (Imm & 63) (logical).
	ALUShiftR
	// ALUCmpLT computes 1 if int64(Src1) < int64(Src2)+Imm else 0.
	ALUCmpLT
	// ALUCmpEQ computes 1 if Src1 == Src2+uint64(Imm) else 0.
	ALUCmpEQ
	// ALUMul computes Src1 * Src2 (used with OpMul).
	ALUMul
	// ALUFAdd computes the float64 sum of Src1 and Src2 (used with OpFPU).
	ALUFAdd
	// ALUFMul computes the float64 product of Src1 and Src2 (used with OpFPU).
	ALUFMul
)

// BrFn selects the condition of an OpBranch instruction, applied to Src1.
type BrFn uint8

// Branch condition constants.
const (
	// BrEQZ branches if Src1 == 0.
	BrEQZ BrFn = iota
	// BrNEZ branches if Src1 != 0.
	BrNEZ
	// BrLTZ branches if int64(Src1) < 0.
	BrLTZ
	// BrGEZ branches if int64(Src1) >= 0.
	BrGEZ
)

// Inst is a single static SimISA instruction.
//
// The zero value is a nop. Instructions are 4 bytes for PC arithmetic
// purposes (PCs advance by InstBytes).
type Inst struct {
	// PC is the instruction's address. Populated by program.Builder.
	PC uint64
	// Op is the operation class.
	Op Op
	// Fn selects ALU/FPU semantics for OpALU/OpMul/OpFPU.
	Fn ALUFn
	// Br selects the branch condition for OpBranch.
	Br BrFn
	// Dst is the destination architectural register (RegNone if none).
	Dst Reg
	// Src1 is the first source register (base address for memory ops,
	// condition for branches, target for returns).
	Src1 Reg
	// Src2 is the second source register (store data for OpStore).
	Src2 Reg
	// Imm is the immediate / address displacement.
	Imm int64
	// Target is the statically-known target PC for OpBranch/OpJump/OpCall.
	Target uint64
	// MemSize is the access width in bytes (1, 2, 4 or 8) for OpLoad/OpStore.
	MemSize uint8
	// Signed indicates a sign-extending (rather than zero-extending) load.
	Signed bool
	// FPConv indicates an Alpha lds/sts-style single-precision FP memory
	// operation that converts between the 32-bit memory format and the 64-bit
	// register format. Only meaningful when MemSize == 4.
	FPConv bool
	// Label is an optional symbolic name used by the program builder for
	// diagnostics.
	Label string
}

// InstBytes is the architectural size of one instruction.
const InstBytes = 4

// IsLoad reports whether the instruction is a load.
func (in *Inst) IsLoad() bool { return in.Op == OpLoad }

// IsStore reports whether the instruction is a store.
func (in *Inst) IsStore() bool { return in.Op == OpStore }

// IsMem reports whether the instruction accesses memory.
func (in *Inst) IsMem() bool { return in.Op == OpLoad || in.Op == OpStore }

// IsBranch reports whether the instruction is any control-flow transfer.
func (in *Inst) IsBranch() bool {
	switch in.Op {
	case OpBranch, OpJump, OpCall, OpRet:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (in *Inst) IsCondBranch() bool { return in.Op == OpBranch }

// IsCall reports whether the instruction is a call.
func (in *Inst) IsCall() bool { return in.Op == OpCall }

// IsReturn reports whether the instruction is a return.
func (in *Inst) IsReturn() bool { return in.Op == OpRet }

// HasDst reports whether the instruction writes an architectural register.
func (in *Inst) HasDst() bool { return in.Dst != RegNone && in.Dst != RegZero }

// NextPC is the fall-through PC.
func (in *Inst) NextPC() uint64 { return in.PC + InstBytes }

// ExecLatency returns the execute-stage latency in cycles for the
// instruction, excluding memory-hierarchy latency for loads.
func (in *Inst) ExecLatency() int {
	switch in.Op {
	case OpMul:
		return 3
	case OpFPU:
		return 4
	default:
		return 1
	}
}

// Validate checks structural well-formedness of the instruction and returns a
// descriptive error for malformed combinations.
func (in *Inst) Validate() error {
	if in.Op >= numOps {
		return fmt.Errorf("isa: invalid op %d", in.Op)
	}
	if in.IsMem() {
		switch in.MemSize {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: %s at pc=%#x has invalid memory size %d", in.Op, in.PC, in.MemSize)
		}
		if in.FPConv && in.MemSize != 4 {
			return fmt.Errorf("isa: FP-converting memory op at pc=%#x must be 4 bytes, got %d", in.PC, in.MemSize)
		}
		if !in.Src1.Valid() {
			return fmt.Errorf("isa: memory op at pc=%#x missing base register", in.PC)
		}
	}
	if in.Op == OpLoad && !in.Dst.Valid() {
		return fmt.Errorf("isa: load at pc=%#x missing destination register", in.PC)
	}
	if in.Op == OpStore && !in.Src2.Valid() {
		return fmt.Errorf("isa: store at pc=%#x missing data register", in.PC)
	}
	if in.Op == OpRet && !in.Src1.Valid() {
		return fmt.Errorf("isa: return at pc=%#x missing target register", in.PC)
	}
	return nil
}

// String renders a compact disassembly of the instruction.
func (in *Inst) String() string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("%#06x: ld%d %s, %d(%s)", in.PC, in.MemSize, in.Dst, in.Imm, in.Src1)
	case OpStore:
		return fmt.Sprintf("%#06x: st%d %s, %d(%s)", in.PC, in.MemSize, in.Src2, in.Imm, in.Src1)
	case OpBranch:
		return fmt.Sprintf("%#06x: br%d %s, %#x", in.PC, in.Br, in.Src1, in.Target)
	case OpJump:
		return fmt.Sprintf("%#06x: jmp %#x", in.PC, in.Target)
	case OpCall:
		return fmt.Sprintf("%#06x: call %#x", in.PC, in.Target)
	case OpRet:
		return fmt.Sprintf("%#06x: ret %s", in.PC, in.Src1)
	case OpHalt:
		return fmt.Sprintf("%#06x: halt", in.PC)
	default:
		return fmt.Sprintf("%#06x: %s %s, %s, %s, %d", in.PC, in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}
