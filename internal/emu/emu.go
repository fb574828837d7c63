// Package emu implements the SimISA functional emulator.
//
// The emulator executes a program architecturally (in program order) and
// produces a stream of dynamic instructions annotated with everything the
// timing model and the NoSQ experiments need:
//
//   - effective addresses, access sizes and values for memory operations;
//   - branch outcomes and actual next PCs;
//   - store sequence numbers (SSNs), the naming scheme the SVW and NoSQ
//     mechanisms are built on; and
//   - oracle memory-dependence information for every load: the SSN of the
//     youngest older store that wrote any of the load's bytes, whether the
//     load's bytes come from more than one source (the multi-source /
//     partial-store case SMB cannot bypass), the communicating store's size
//     and address, and the byte shift between them.
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

// DynInst is one dynamic (executed) instruction.
//
// Field order: every 8-byte field comes first and the narrow fields last, so
// the struct carries no interior padding — 112 bytes on 64-bit hosts, where
// interleaving the narrow fields with the wide ones would pad it to 136. A
// trace holds one record per dynamic instruction, so keep the order when
// adding a field; TestRecordSize pins the size.
type DynInst struct {
	// Seq is the 1-based dynamic sequence number.
	Seq uint64
	// Static points at the static instruction.
	Static *isa.Inst
	// PC is the instruction's address.
	PC uint64
	// NextPC is the architecturally correct next PC (branch outcome applied).
	NextPC uint64

	// EffAddr is the effective address for memory operations.
	EffAddr uint64
	// Value is the load result or store data (post size/sign handling).
	Value uint64

	// StoreSSN is this store's 1-based store sequence number (stores only).
	StoreSSN uint64
	// SSNBefore is the SSN of the youngest store preceding this instruction
	// in program order (0 if none). For a store, this excludes itself.
	SSNBefore uint64

	// Dep describes the load's oracle memory dependence (loads only).
	Dep Dependence

	// Taken reports whether a control-flow instruction was taken.
	Taken bool
	// MemSize is the access width in bytes for memory operations.
	MemSize uint8
}

// Dependence is the oracle description of where a load's bytes come from.
// Its fields follow DynInst's order rule — 8-byte fields first, flags and
// byte-sized fields last — which keeps it at 40 bytes rather than 56.
type Dependence struct {
	// SSN is the SSN of the youngest older store that wrote any byte the
	// load reads (see Exists).
	SSN uint64
	// Seq is the dynamic sequence number of that store.
	Seq uint64
	// StorePC is the communicating store's program counter (used to train
	// store-PC based predictors such as StoreSets).
	StorePC uint64
	// StoreAddr is the communicating store's effective address.
	StoreAddr uint64

	// Exists reports whether any older store wrote any byte the load reads;
	// the other fields are meaningful only when it is set.
	Exists bool
	// MultiSource reports that the load's bytes do not all come from that
	// single store (they come from several stores, or partly from memory
	// never written by a tracked store). SMB cannot bypass these.
	MultiSource bool
	// StoreSize is the communicating store's width in bytes.
	StoreSize uint8
	// StoreFPConv reports whether the communicating store used the
	// single-precision FP conversion (sts).
	StoreFPConv bool
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
func (ld *DynInst) Distance() (dist uint64, ok bool) {
	if !ld.Dep.Exists {
		return 0, false
	}
	return ld.SSNBefore - ld.Dep.SSN, true
}

// IsLoad reports whether the dynamic instruction is a load.
func (d *DynInst) IsLoad() bool { return d.Static.IsLoad() }

// IsStore reports whether the dynamic instruction is a store.
func (d *DynInst) IsStore() bool { return d.Static.IsStore() }

// byteSource remembers which store last wrote a byte.
type byteSource struct {
	ssn  uint64
	seq  uint64
	pc   uint64
	addr uint64
	size uint8
	fp   bool
}

// writerTable is the paged per-byte last-writer map backing the dependence
// oracle. Its paged layout (mem.PagedTable) makes the per-byte updates and
// lookups on the emulation hot path cost one page probe per page crossing
// instead of one map probe per byte.
type writerTable struct {
	pages mem.PagedTable[[mem.PageSize]byteSource]
}

// record marks src as the last writer of size bytes starting at addr.
func (t *writerTable) record(addr uint64, size uint8, src byteSource) {
	for i := uint64(0); i < uint64(size); i++ {
		a := addr + i
		t.pages.Page(a, true)[a&(mem.PageSize-1)] = src
	}
}

// lookup returns the last writer of addr, or nil if the byte was never
// written by a tracked store.
func (t *writerTable) lookup(addr uint64) *byteSource {
	p := t.pages.Page(addr, false)
	if p == nil {
		return nil
	}
	src := &p[addr&(mem.PageSize-1)]
	if src.ssn == 0 {
		return nil
	}
	return src
}

// resolve computes the oracle dependence of a load at addr/size on older
// stores by inspecting the per-byte last-writer map. It is shared by the
// live emulator and by TraceBuilder, which replays recorded instruction
// streams — both must derive identical Dependence records from the same
// store history.
func (t *writerTable) resolve(addr uint64, size uint8) Dependence {
	var dep Dependence
	var youngest byteSource
	sources := 0
	uncovered := false
	// Accesses are at most 8 bytes, so the distinct source SSNs fit in a
	// fixed array; no per-load allocation.
	var seen [8]uint64
	for i := uint64(0); i < uint64(size); i++ {
		src := t.lookup(addr + i)
		if src == nil {
			uncovered = true
			continue
		}
		known := false
		for j := 0; j < sources; j++ {
			if seen[j] == src.ssn {
				known = true
				break
			}
		}
		if !known {
			seen[sources] = src.ssn
			sources++
		}
		if src.ssn > youngest.ssn {
			youngest = *src
		}
	}
	if sources == 0 {
		return dep
	}
	dep.Exists = true
	dep.SSN = youngest.ssn
	dep.Seq = youngest.seq
	dep.StorePC = youngest.pc
	dep.StoreAddr = youngest.addr
	dep.StoreSize = youngest.size
	dep.StoreFPConv = youngest.fp
	dep.MultiSource = sources > 1 || uncovered
	if addr >= youngest.addr {
		dep.Shift = uint8(addr - youngest.addr)
	} else {
		// Load starts before the store's first byte: necessarily multi-source.
		dep.MultiSource = true
	}
	dep.PartialWord = size < 8 || youngest.size < 8
	return dep
}

// Emulator executes a program in program order.
type Emulator struct {
	prog   *program.Program
	mem    *mem.Memory
	regs   [isa.NumArchRegs]uint64
	pc     uint64
	seq    uint64
	ssn    uint64
	halted bool
	// lastWriter tracks, per byte address, the most recent store to write it.
	lastWriter writerTable

	// dynChunk amortises DynInst allocation for Step: records are carved out
	// of fixed-size blocks instead of being heap-allocated one by one.
	dynChunk []DynInst

	// MaxInsts bounds execution; Step returns ErrLimit beyond it.
	MaxInsts uint64
}

// dynChunkSize is the number of DynInst records allocated at once by Step.
const dynChunkSize = 1024

// ErrLimit is returned by Step when the instruction limit is exceeded,
// protecting against runaway programs.
var ErrLimit = errors.New("emu: instruction limit exceeded")

// ErrHalted is returned by Step after the program has executed OpHalt.
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

// SetReg sets the architectural value of r (used by tests and workloads).
func (e *Emulator) SetReg(r isa.Reg, v uint64) {
	if r.Valid() && r != isa.RegZero {
		e.regs[r] = v
	}
}

// PC returns the current program counter.
func (e *Emulator) PC() uint64 { return e.pc }

// Halted reports whether the program has executed OpHalt.
func (e *Emulator) Halted() bool { return e.halted }

// InstCount returns the number of dynamic instructions executed so far.
func (e *Emulator) InstCount() uint64 { return e.seq }

// StoreCount returns the number of dynamic stores executed so far (the
// current architectural SSN).
func (e *Emulator) StoreCount() uint64 { return e.ssn }

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

// Step executes one instruction and returns its dynamic record. Records are
// carved out of chunked backing arrays, so a chunk is released to the garbage
// collector only once every record in it is unreachable.
func (e *Emulator) Step() (*DynInst, error) {
	if len(e.dynChunk) == 0 {
		e.dynChunk = make([]DynInst, dynChunkSize)
	}
	d := &e.dynChunk[0]
	if err := e.StepInto(d); err != nil {
		return nil, err
	}
	e.dynChunk = e.dynChunk[1:]
	return d, nil
}

// StepInto executes one instruction, writing its dynamic record into d. It is
// the allocation-free core of Step, used by trace recording and by consumers
// that reuse a scratch record.
func (e *Emulator) StepInto(d *DynInst) error {
	if e.halted {
		return ErrHalted
	}
	if e.seq >= e.MaxInsts {
		return ErrLimit
	}
	in := e.prog.At(e.pc)
	if in == nil {
		return fmt.Errorf("emu: pc %#x outside program %q", e.pc, e.prog.Name)
	}
	e.seq++
	*d = DynInst{
		Seq:       e.seq,
		Static:    in,
		PC:        in.PC,
		NextPC:    in.NextPC(),
		SSNBefore: e.ssn,
	}

	switch in.Op {
	case isa.OpNop:
		// nothing

	case isa.OpHalt:
		e.halted = true

	case isa.OpALU, isa.OpMul, isa.OpFPU:
		v := e.execALU(in)
		e.writeReg(in.Dst, v)
		d.Value = v

	case isa.OpLoad:
		addr := e.readReg(in.Src1) + uint64(in.Imm)
		d.EffAddr = addr
		d.MemSize = in.MemSize
		d.Dep = e.resolveDependence(addr, in.MemSize)
		raw := e.mem.Read(addr, int(in.MemSize))
		v := e.convertLoad(in, raw)
		e.writeReg(in.Dst, v)
		d.Value = v

	case isa.OpStore:
		addr := e.readReg(in.Src1) + uint64(in.Imm)
		data := e.readReg(in.Src2)
		stored := e.convertStore(in, data)
		d.EffAddr = addr
		d.MemSize = in.MemSize
		d.Value = stored
		e.ssn++
		d.StoreSSN = e.ssn
		e.mem.Write(addr, int(in.MemSize), stored)
		e.lastWriter.record(addr, in.MemSize,
			byteSource{ssn: e.ssn, seq: e.seq, pc: in.PC, addr: addr, size: in.MemSize, fp: in.FPConv})

	case isa.OpBranch:
		v := e.readReg(in.Src1)
		taken := evalBranch(in.Br, v)
		d.Taken = taken
		if taken {
			d.NextPC = in.Target
		}

	case isa.OpJump:
		d.Taken = true
		d.NextPC = in.Target

	case isa.OpCall:
		e.writeReg(in.Dst, in.NextPC())
		d.Taken = true
		d.NextPC = in.Target
		d.Value = in.NextPC()

	case isa.OpRet:
		target := e.readReg(in.Src1)
		d.Taken = true
		d.NextPC = target

	default:
		return fmt.Errorf("emu: unknown op %v at pc %#x", in.Op, in.PC)
	}

	e.pc = d.NextPC
	return nil
}

// Run executes until halt, error, or limit instructions (whichever is first),
// discarding the dynamic records, and returns the number executed. Useful for
// fast functional warm-up and for tests that only care about final state.
func (e *Emulator) Run(limit uint64) (uint64, error) {
	var n uint64
	var scratch DynInst
	for n < limit {
		err := e.StepInto(&scratch)
		if errors.Is(err, ErrHalted) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if e.halted {
			return n, nil
		}
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

// resolveDependence computes the oracle dependence of a load on older stores
// by inspecting the per-byte last-writer map.
func (e *Emulator) resolveDependence(addr uint64, size uint8) Dependence {
	return e.lastWriter.resolve(addr, size)
}
