// Package program provides the static program representation used by the
// functional emulator, plus a small assembler-style Builder for constructing
// programs (labels, forward references, common instruction helpers).
//
// Programs are laid out in a flat code region starting at CodeBase; the data
// segment, stack and heap regions are conventions shared with the workload
// generator.
package program

import (
	"fmt"

	"repro/internal/isa"
)

// Memory-layout conventions shared by the builder, emulator and workloads.
const (
	// CodeBase is the address of the first instruction.
	CodeBase uint64 = 0x0000_0000_0040_0000
	// DataBase is the start of the static data segment.
	DataBase uint64 = 0x0000_0000_1000_0000
	// StackBase is the initial stack pointer (stack grows down).
	StackBase uint64 = 0x0000_0000_7fff_0000
	// HeapBase is the start of the heap region.
	HeapBase uint64 = 0x0000_0000_2000_0000
)

// Program is an immutable static program: a contiguous sequence of
// instructions starting at Entry.
type Program struct {
	// Name identifies the program (benchmark name).
	Name string
	// Entry is the PC of the first instruction executed.
	Entry uint64
	// Insts holds the instructions, indexed by (PC-CodeBase)/InstBytes.
	Insts []isa.Inst
	// Labels maps symbolic names to PCs (for diagnostics and tests).
	Labels map[string]uint64
	// InitData lists initial data-segment contents applied before execution.
	InitData []DataInit
}

// DataInit is an initial memory value applied before the program runs.
type DataInit struct {
	Addr  uint64
	Size  int
	Value uint64
}

// At returns the instruction at the given PC, or nil if the PC is outside the
// program.
func (p *Program) At(pc uint64) *isa.Inst {
	if k, ok := p.Index(pc); ok {
		return &p.Insts[k]
	}
	return nil
}

// Index returns the index in Insts of the instruction at the given PC, or
// false if the PC is outside the program.
func (p *Program) Index(pc uint64) (int, bool) {
	if pc < CodeBase || (pc-CodeBase)%isa.InstBytes != 0 {
		return 0, false
	}
	k := (pc - CodeBase) / isa.InstBytes
	if k >= uint64(len(p.Insts)) {
		return 0, false
	}
	return int(k), true
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Insts) }

// Validate checks every instruction and all branch targets.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("program %q has no instructions", p.Name)
	}
	end := CodeBase + uint64(len(p.Insts))*isa.InstBytes
	for i := range p.Insts {
		in := &p.Insts[i]
		if err := in.Validate(); err != nil {
			return err
		}
		if in.Op == isa.OpBranch || in.Op == isa.OpJump || in.Op == isa.OpCall {
			if in.Target < CodeBase || in.Target >= end || (in.Target-CodeBase)%isa.InstBytes != 0 {
				return fmt.Errorf("program %q: %s targets %#x outside code [%#x,%#x)", p.Name, in, in.Target, CodeBase, end)
			}
		}
	}
	if p.At(p.Entry) == nil {
		return fmt.Errorf("program %q: entry %#x not in code", p.Name, p.Entry)
	}
	return nil
}

// Builder assembles a Program incrementally. It supports labels with forward
// references: branches may name labels that are defined later; Build resolves
// them.
type Builder struct {
	name     string
	insts    []isa.Inst
	labels   map[string]uint64
	pending  []pendingRef // forward references to resolve at Build time
	initData []DataInit
	err      error
}

type pendingRef struct {
	instIdx int
	label   string
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]uint64)}
}

// PC returns the address the next emitted instruction will have.
func (b *Builder) PC() uint64 {
	return CodeBase + uint64(len(b.insts))*isa.InstBytes
}

// Err returns the first error recorded by the builder, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label defines a label at the current PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.setErr(fmt.Errorf("program %q: duplicate label %q", b.name, name))
		return b
	}
	b.labels[name] = b.PC()
	return b
}

// Emit appends a raw instruction, assigning its PC.
func (b *Builder) Emit(in isa.Inst) *Builder {
	in.PC = b.PC()
	b.insts = append(b.insts, in)
	return b
}

// emitRef appends an instruction whose Target refers to a label.
func (b *Builder) emitRef(in isa.Inst, label string) *Builder {
	b.Emit(in)
	b.pending = append(b.pending, pendingRef{instIdx: len(b.insts) - 1, label: label})
	return b
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.Emit(isa.Inst{Op: isa.OpNop}) }

// Halt emits a halt.
func (b *Builder) Halt() *Builder { return b.Emit(isa.Inst{Op: isa.OpHalt}) }

// MovImm emits dst = imm (an ALU add of the zero register and an immediate).
func (b *Builder) MovImm(dst isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUAdd, Dst: dst, Src1: isa.RegZero, Src2: isa.RegZero, Imm: imm})
}

// AddImm emits dst = src + imm.
func (b *Builder) AddImm(dst, src isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUAdd, Dst: dst, Src1: src, Src2: isa.RegZero, Imm: imm})
}

// Add emits dst = src1 + src2.
func (b *Builder) Add(dst, src1, src2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUAdd, Dst: dst, Src1: src1, Src2: src2})
}

// Sub emits dst = src1 - src2.
func (b *Builder) Sub(dst, src1, src2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUSub, Dst: dst, Src1: src1, Src2: src2})
}

// And emits dst = src1 & src2.
func (b *Builder) And(dst, src1, src2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUAnd, Dst: dst, Src1: src1, Src2: src2})
}

// Xor emits dst = src1 ^ src2 ^ imm.
func (b *Builder) Xor(dst, src1, src2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUXor, Dst: dst, Src1: src1, Src2: src2, Imm: imm})
}

// ShiftL emits dst = src << amount.
func (b *Builder) ShiftL(dst, src isa.Reg, amount int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUShiftL, Dst: dst, Src1: src, Imm: amount})
}

// ShiftR emits dst = src >> amount (logical).
func (b *Builder) ShiftR(dst, src isa.Reg, amount int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUShiftR, Dst: dst, Src1: src, Imm: amount})
}

// CmpLT emits dst = (src1 < src2+imm) ? 1 : 0 using signed comparison.
func (b *Builder) CmpLT(dst, src1, src2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUCmpLT, Dst: dst, Src1: src1, Src2: src2, Imm: imm})
}

// CmpEQ emits dst = (src1 == src2+imm) ? 1 : 0.
func (b *Builder) CmpEQ(dst, src1, src2 isa.Reg, imm int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpALU, Fn: isa.ALUCmpEQ, Dst: dst, Src1: src1, Src2: src2, Imm: imm})
}

// Mul emits a multi-cycle integer multiply dst = src1 * src2.
func (b *Builder) Mul(dst, src1, src2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpMul, Fn: isa.ALUMul, Dst: dst, Src1: src1, Src2: src2})
}

// FAdd emits a floating-point add dst = src1 + src2.
func (b *Builder) FAdd(dst, src1, src2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpFPU, Fn: isa.ALUFAdd, Dst: dst, Src1: src1, Src2: src2})
}

// FMul emits a floating-point multiply dst = src1 * src2.
func (b *Builder) FMul(dst, src1, src2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpFPU, Fn: isa.ALUFMul, Dst: dst, Src1: src1, Src2: src2})
}

// Load emits dst = zero-extended size-byte load from offset(base).
func (b *Builder) Load(dst, base isa.Reg, offset int64, size uint8) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: base, Imm: offset, MemSize: size})
}

// LoadSigned emits dst = sign-extended size-byte load from offset(base).
func (b *Builder) LoadSigned(dst, base isa.Reg, offset int64, size uint8) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: base, Imm: offset, MemSize: size, Signed: true})
}

// LoadFP emits an lds-style 4-byte converting FP load.
func (b *Builder) LoadFP(dst, base isa.Reg, offset int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: base, Imm: offset, MemSize: 4, FPConv: true})
}

// LoadFP8 emits an ldt-style 8-byte FP load.
func (b *Builder) LoadFP8(dst, base isa.Reg, offset int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: base, Imm: offset, MemSize: 8})
}

// Store emits a size-byte store of data to offset(base).
func (b *Builder) Store(data, base isa.Reg, offset int64, size uint8) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpStore, Src1: base, Src2: data, Imm: offset, MemSize: size})
}

// StoreFP emits an sts-style 4-byte converting FP store.
func (b *Builder) StoreFP(data, base isa.Reg, offset int64) *Builder {
	return b.Emit(isa.Inst{Op: isa.OpStore, Src1: base, Src2: data, Imm: offset, MemSize: 4, FPConv: true})
}

// Branch emits a conditional branch on cond(src) to the named label.
func (b *Builder) Branch(cond isa.BrFn, src isa.Reg, label string) *Builder {
	return b.emitRef(isa.Inst{Op: isa.OpBranch, Br: cond, Src1: src}, label)
}

// Jump emits an unconditional jump to the named label.
func (b *Builder) Jump(label string) *Builder {
	return b.emitRef(isa.Inst{Op: isa.OpJump}, label)
}

// Call emits a call to the named label, writing the return address to RegRA.
func (b *Builder) Call(label string) *Builder {
	return b.emitRef(isa.Inst{Op: isa.OpCall, Dst: isa.RegRA}, label)
}

// Ret emits a return through RegRA.
func (b *Builder) Ret() *Builder {
	return b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RegRA})
}

// InitData records an initial memory value to be installed before execution.
func (b *Builder) InitData(addr uint64, size int, value uint64) *Builder {
	b.initData = append(b.initData, DataInit{Addr: addr, Size: size, Value: value})
	return b
}

// Build resolves forward references, validates the program and returns it.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, ref := range b.pending {
		pc, ok := b.labels[ref.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, ref.label)
		}
		b.insts[ref.instIdx].Target = pc
		if b.insts[ref.instIdx].Label == "" {
			b.insts[ref.instIdx].Label = ref.label
		}
	}
	p := &Program{
		Name:     b.name,
		Entry:    CodeBase,
		Insts:    b.insts,
		Labels:   b.labels,
		InitData: b.initData,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build but panics on error; intended for tests and generators
// whose programs are constructed from trusted templates.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
