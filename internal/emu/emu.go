// Package emu implements the SimISA functional emulator and the dynamic
// instruction records the timing model replays.
//
// The emulator executes a program architecturally (in program order).
// RecordTrace hands each executed instruction — its static instruction,
// effective address, branch outcome and next PC — to a TraceBuilder, the one
// place a Record is filled in. A trace keeps its static instructions once,
// in a table in first-execution order, and each record names its static by
// table index. The builder annotates every record with everything the timing
// model and the NoSQ experiments need:
//
//   - effective addresses for memory operations (their access sizes are in
//     the static);
//   - branch outcomes and actual next PCs;
//   - store sequence numbers (SSNs), the naming scheme the SVW and NoSQ
//     mechanisms are built on; and
//   - oracle memory-dependence information for every load: the SSN and
//     sequence number of the youngest older store that wrote any of the
//     load's bytes, whether the load's bytes come from more than one source
//     (the multi-source / partial-store case SMB cannot bypass), whether the
//     communication is partial-word, and the byte shift between load and
//     store. The communicating store's PC and size are read from that
//     store's own record.
//
// Architectural values and the communicating store's address are not
// recorded: nothing reads them. The .nsqt decoder (internal/traceio) feeds
// the same builder with the file's static table, so a decoded trace equals
// the recording it came from record for record, static index included.
//
// The oracle annotations let the timing model decide exactly when a
// speculative choice (a bypass, or a load issued past an un-committed older
// store) produced a wrong value, and let the experiment harness reproduce the
// communication-behaviour columns of Table 5.
package emu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Record is one dynamic (executed) instruction as a trace stores it: the
// facts only execution knows plus the oracle annotations TraceBuilder
// derives from them. A trace holds one record per dynamic instruction, so a
// record is 48 bytes and holds no pointer, and the collector never scans
// the blocks that hold them. Everything else is derived:
//
//   - the sequence number is the record's position in its trace (the seq
//     TraceCursor.Get serves it under);
//   - the PC, op and access width come from its static instruction, an
//     index into the trace's static table (TraceCursor.Static);
//   - a store's SSN is one more than the SSN before it (StoreSSN);
//   - a load's communicating store's PC and width come from that store's
//     own record, which precedes the load and so is always in the trace
//     (TraceCursor.DepStore).
//
// Its fields are unexported: TraceBuilder.Append is the only code that
// writes one. TestRecordSize pins the size and TestRecordHasNoPointers the
// layout.
type Record struct {
	nextPC  uint64
	effAddr uint64
	// ssnBefore is the SSN of the youngest store preceding this instruction
	// in program order (0 if none); for a store, it excludes the store.
	ssnBefore uint64
	depSSN    uint64
	depSeq    uint64
	static    uint32 // index into the trace's static table
	bits      uint32 // recTaken, the dep* flags, and the dependence shift
}

// Record.bits layout: four flags in the low bits, the dependence's byte
// shift (always below 8) in bits depShiftPos and up.
const (
	recTaken = 1 << iota
	depExists
	depMultiSource
	depPartialWord

	depShiftPos = 8
)

// NextPC returns the architecturally correct next PC (branch outcome
// applied).
func (r *Record) NextPC() uint64 { return r.nextPC }

// EffAddr returns the effective address of a memory operation (0 for any
// other instruction).
func (r *Record) EffAddr() uint64 { return r.effAddr }

// StoreSSN returns a store's own 1-based store sequence number. It is
// meaningful for stores only.
func (r *Record) StoreSSN() uint64 { return r.ssnBefore + 1 }

// Taken reports whether a control-flow instruction was taken.
func (r *Record) Taken() bool { return r.bits&recTaken != 0 }

// StaticIndex returns the index of the record's static instruction in its
// trace's static table.
func (r *Record) StaticIndex() uint32 { return r.static }

// Dep returns the load's oracle memory dependence (the zero Dependence for
// any other instruction).
func (r *Record) Dep() Dependence {
	return Dependence{
		SSN:         r.depSSN,
		Seq:         r.depSeq,
		Exists:      r.bits&depExists != 0,
		MultiSource: r.bits&depMultiSource != 0,
		Shift:       uint8(r.bits >> depShiftPos),
		PartialWord: r.bits&depPartialWord != 0,
	}
}

// Dependence is the oracle description of where a load's bytes come from.
// The communicating store's PC and width are not part of it: they are in
// that store's own record (TraceCursor.DepStore).
type Dependence struct {
	// SSN is the SSN of the youngest older store that wrote any byte the
	// load reads (see Exists).
	SSN uint64
	// Seq is the dynamic sequence number of that store.
	Seq uint64

	// Exists reports whether any older store wrote any byte the load reads;
	// the other fields are meaningful only when it is set.
	Exists bool
	// MultiSource reports that the load's bytes do not all come from that
	// single store (they come from several stores, or partly from memory
	// never written by a tracked store). SMB cannot bypass these.
	MultiSource bool
	// Shift is the byte offset of the load's address within the store's
	// written bytes (load addr - store addr), the shift amount partial-word
	// SMB must learn.
	Shift uint8
	// PartialWord reports that either the load or the communicating store is
	// narrower than 8 bytes (the paper's definition of partial-word
	// communication).
	PartialWord bool
}

// Distance returns the dynamic store distance from the communicating store to
// the load: the number of stores renamed after the communicating store but
// before the load. Returns 0 if the dependence is on the immediately
// preceding store; ok is false when the load has no dependence.
func (r *Record) Distance() (dist uint64, ok bool) {
	if r.bits&depExists == 0 {
		return 0, false
	}
	return r.ssnBefore - r.depSSN, true
}

// writerTable is the paged per-byte last-writer map backing the dependence
// oracle: for each byte a store has written, the sequence number of the
// store that wrote it last (0 for a byte no store wrote). The store's SSN,
// address and width are in its own record, so an entry is 8 bytes and a
// page holds no pointer. The paged layout (mem.PagedTable) makes the
// per-byte updates and lookups on the emulation hot path cost one page
// probe per page crossing instead of one map probe per byte.
type writerTable struct {
	pages mem.PagedTable[writerPage]
}

// writerPage is one page of the last-writer table.
type writerPage [mem.PageSize]uint64

// record marks the store with sequence number seq as the last writer of
// size bytes starting at addr.
func (t *writerTable) record(addr uint64, size uint8, seq uint64) {
	for i := uint64(0); i < uint64(size); i++ {
		a := addr + i
		t.pages.Page(a, true)[a&(mem.PageSize-1)] = seq
	}
}

// lookup returns the sequence number of the last store to write addr, or 0
// if no store wrote it.
func (t *writerTable) lookup(addr uint64) uint64 {
	p := t.pages.Page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(mem.PageSize-1)]
}

// Emulator executes a program in program order. It keeps architectural
// state only; RecordTrace turns its execution into a Trace.
type Emulator struct {
	prog   *program.Program
	mem    *mem.Memory
	regs   [isa.NumArchRegs]uint64
	pc     uint64
	insts  uint64
	halted bool

	// MaxInsts bounds execution; Run returns ErrLimit beyond it.
	MaxInsts uint64
}

// ErrLimit is returned when the instruction limit is exceeded, protecting
// against runaway programs.
var ErrLimit = errors.New("emu: instruction limit exceeded")

// ErrHalted is returned by a step after the program has executed OpHalt.
var ErrHalted = errors.New("emu: program halted")

// New creates an emulator for the program with a fresh memory image. Initial
// data from the program is installed and the stack pointer is initialised.
func New(p *program.Program) *Emulator {
	e := &Emulator{
		prog:     p,
		mem:      mem.New(),
		pc:       p.Entry,
		MaxInsts: 100_000_000,
	}
	for _, d := range p.InitData {
		e.mem.Write(d.Addr, d.Size, d.Value)
	}
	e.regs[isa.RegSP] = program.StackBase
	return e
}

// Memory exposes the emulator's memory image (used by tests).
func (e *Emulator) Memory() *mem.Memory { return e.mem }

// Reg returns the current architectural value of r.
func (e *Emulator) Reg(r isa.Reg) uint64 {
	if !r.Valid() {
		return 0
	}
	return e.regs[r]
}

// Halted reports whether the program has executed OpHalt.
func (e *Emulator) Halted() bool { return e.halted }

func (e *Emulator) readReg(r isa.Reg) uint64 {
	if !r.Valid() || r == isa.RegZero {
		return 0
	}
	return e.regs[r]
}

func (e *Emulator) writeReg(r isa.Reg, v uint64) {
	if r.Valid() && r != isa.RegZero {
		e.regs[r] = v
	}
}

// exec executes one instruction, updating architectural state, and returns
// what a TraceBuilder records of it: the instruction's index in the
// program, the effective address of a memory operation, whether a control
// transfer was taken, and the architectural next PC.
func (e *Emulator) exec() (k int, effAddr uint64, taken bool, nextPC uint64, err error) {
	if e.halted {
		return 0, 0, false, 0, ErrHalted
	}
	if e.insts >= e.MaxInsts {
		return 0, 0, false, 0, ErrLimit
	}
	k, ok := e.prog.Index(e.pc)
	if !ok {
		return 0, 0, false, 0, fmt.Errorf("emu: pc %#x outside program %q", e.pc, e.prog.Name)
	}
	in := &e.prog.Insts[k]
	e.insts++
	nextPC = in.NextPC()

	switch in.Op {
	case isa.OpNop:
		// nothing

	case isa.OpHalt:
		e.halted = true

	case isa.OpALU, isa.OpMul, isa.OpFPU:
		e.writeReg(in.Dst, e.execALU(in))

	case isa.OpLoad:
		effAddr = e.readReg(in.Src1) + uint64(in.Imm)
		raw := e.mem.Read(effAddr, int(in.MemSize))
		e.writeReg(in.Dst, e.convertLoad(in, raw))

	case isa.OpStore:
		effAddr = e.readReg(in.Src1) + uint64(in.Imm)
		e.mem.Write(effAddr, int(in.MemSize), e.convertStore(in, e.readReg(in.Src2)))

	case isa.OpBranch:
		taken = evalBranch(in.Br, e.readReg(in.Src1))
		if taken {
			nextPC = in.Target
		}

	case isa.OpJump:
		taken, nextPC = true, in.Target

	case isa.OpCall:
		e.writeReg(in.Dst, in.NextPC())
		taken, nextPC = true, in.Target

	case isa.OpRet:
		taken, nextPC = true, e.readReg(in.Src1)

	default:
		return 0, 0, false, 0, fmt.Errorf("emu: unknown op %v at pc %#x", in.Op, in.PC)
	}

	e.pc = nextPC
	return k, effAddr, taken, nextPC, nil
}

// Run executes until halt, error, or limit instructions (whichever is first),
// recording nothing, and returns the number executed. Useful for fast
// functional warm-up and for tests that only care about final state.
func (e *Emulator) Run(limit uint64) (uint64, error) {
	var n uint64
	for n < limit && !e.halted {
		if _, _, _, _, err := e.exec(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (e *Emulator) execALU(in *isa.Inst) uint64 {
	a := e.readReg(in.Src1)
	b := e.readReg(in.Src2)
	switch in.Fn {
	case isa.ALUAdd:
		return a + b + uint64(in.Imm)
	case isa.ALUSub:
		return a - b
	case isa.ALUAnd:
		return a & b
	case isa.ALUOr:
		return a | b
	case isa.ALUXor:
		return a ^ b ^ uint64(in.Imm)
	case isa.ALUShiftL:
		return a << (uint64(in.Imm) & 63)
	case isa.ALUShiftR:
		return a >> (uint64(in.Imm) & 63)
	case isa.ALUCmpLT:
		if int64(a) < int64(b)+in.Imm {
			return 1
		}
		return 0
	case isa.ALUCmpEQ:
		if a == b+uint64(in.Imm) {
			return 1
		}
		return 0
	case isa.ALUMul:
		return a * b
	case isa.ALUFAdd:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case isa.ALUFMul:
		return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
	default:
		return 0
	}
}

// convertLoad applies the load's width, sign-extension and FP-conversion
// semantics to the raw bytes read from memory.
func (e *Emulator) convertLoad(in *isa.Inst, raw uint64) uint64 {
	if in.FPConv {
		// lds: 32-bit IEEE754 single in memory -> 64-bit double in register.
		return math.Float64bits(float64(math.Float32frombits(uint32(raw))))
	}
	if in.Signed {
		return mem.SignExtend(raw, int(in.MemSize))
	}
	return mem.ZeroExtend(raw, int(in.MemSize))
}

// convertStore applies the store's width and FP-conversion semantics to the
// register value, producing the bytes written to memory.
func (e *Emulator) convertStore(in *isa.Inst, data uint64) uint64 {
	if in.FPConv {
		// sts: 64-bit double in register -> 32-bit single in memory.
		return uint64(math.Float32bits(float32(math.Float64frombits(data))))
	}
	return mem.ZeroExtend(data, int(in.MemSize))
}

func evalBranch(fn isa.BrFn, v uint64) bool {
	switch fn {
	case isa.BrEQZ:
		return v == 0
	case isa.BrNEZ:
		return v != 0
	case isa.BrLTZ:
		return int64(v) < 0
	case isa.BrGEZ:
		return int64(v) >= 0
	default:
		return false
	}
}
