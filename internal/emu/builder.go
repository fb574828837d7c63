package emu

import (
	"fmt"

	"repro/internal/isa"
)

// TraceBuilder builds a Trace from an executed instruction stream — each
// record's static instruction plus the dynamic facts only execution knows
// (effective addresses, branch outcomes, return targets). It is the only
// code that fills in a DynInst: RecordTrace feeds it the live emulator's
// steps and the .nsqt decoder feeds it decoded records. Everything else a
// DynInst carries is derived here: sequence numbers, store sequence
// numbers, and the per-load oracle Dependence from a per-byte last-writer
// table, so a decoded trace equals the recording it came from.
type TraceBuilder struct {
	t          *Trace
	seq        uint64
	ssn        uint64
	lastPC     uint64 // expected PC of the next record (0 before the first)
	halted     bool
	lastWriter writerTable
}

// NewTraceBuilder starts an empty trace for the named program.
func NewTraceBuilder(name string) *TraceBuilder {
	return &TraceBuilder{t: &Trace{name: name}}
}

// Append adds one dynamic execution of the static instruction in. The caller
// supplies only what replay cannot derive: effAddr for memory operations
// (ignored otherwise), taken for conditional branches (ignored otherwise;
// unconditional transfers are always taken), and retPC — the architectural
// target — for OpRet (ignored otherwise). The static instruction must
// outlive the builder's trace: the rebuilt DynInsts point at it.
//
// Append enforces trace well-formedness: each record's PC must equal the
// previous record's architectural next PC, and nothing may follow OpHalt.
func (b *TraceBuilder) Append(in *isa.Inst, effAddr uint64, taken bool, retPC uint64) error {
	if b.halted {
		return fmt.Errorf("emu: trace record %d follows a halt", b.seq+1)
	}
	if err := in.Validate(); err != nil {
		return err
	}
	if b.seq > 0 && in.PC != b.lastPC {
		return fmt.Errorf("emu: trace record %d at pc %#x breaks control flow (expected pc %#x)",
			b.seq+1, in.PC, b.lastPC)
	}
	b.seq++
	d := b.t.recs.add()
	*d = DynInst{
		Seq:       b.seq,
		Static:    in,
		PC:        in.PC,
		NextPC:    in.NextPC(),
		SSNBefore: b.ssn,
	}
	switch in.Op {
	case isa.OpLoad:
		d.EffAddr = effAddr
		d.MemSize = in.MemSize
		d.Dep = b.lastWriter.resolve(effAddr, in.MemSize)
	case isa.OpStore:
		d.EffAddr = effAddr
		d.MemSize = in.MemSize
		b.ssn++
		d.StoreSSN = b.ssn
		b.lastWriter.record(effAddr, in.MemSize,
			byteSource{ssn: b.ssn, seq: b.seq, pc: in.PC, addr: effAddr, size: in.MemSize})
	case isa.OpBranch:
		d.Taken = taken
		if taken {
			d.NextPC = in.Target
		}
	case isa.OpJump, isa.OpCall:
		d.Taken = true
		d.NextPC = in.Target
	case isa.OpRet:
		d.Taken = true
		d.NextPC = retPC
	case isa.OpHalt:
		b.halted = true
	}
	b.lastPC = d.NextPC
	return nil
}

// Len returns the number of records appended so far.
func (b *TraceBuilder) Len() uint64 { return b.seq }

// Trace finalizes and returns the rebuilt trace. The builder must not be
// used afterwards.
func (b *TraceBuilder) Trace() (*Trace, error) {
	if b.t == nil {
		return nil, fmt.Errorf("emu: TraceBuilder.Trace called twice")
	}
	if b.t.recs.n == 0 {
		return nil, fmt.Errorf("emu: empty trace")
	}
	t := b.t
	b.t = nil
	return t, nil
}
