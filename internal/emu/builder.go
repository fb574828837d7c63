package emu

import (
	"fmt"

	"repro/internal/isa"
)

// TraceBuilder builds a Trace from an executed instruction stream — each
// record's static instruction, named by its index in the trace's static
// table, plus the dynamic facts only execution knows (effective addresses,
// branch outcomes, return targets). It is the only code that writes a
// Record: RecordTrace feeds it the live emulator's steps and the .nsqt
// decoder feeds it decoded records. Everything else a trace holds is
// derived here: store sequence numbers and the per-load oracle Dependence,
// from a per-byte last-writer table, so a decoded trace equals the
// recording it came from.
//
// The builder also keeps the static table canonical: it lists exactly the
// statics the records execute, in first-execution order. Append refuses a
// record whose static comes after one no record has executed yet, and Trace
// refuses a table with a static no record executed, so two traces of one
// stream hold one table and equal records.
type TraceBuilder struct {
	t      *Trace
	seq    uint64
	ssn    uint64
	lastPC uint64 // expected PC of the next record (0 before the first)
	halted bool
	// executed is the number of statics the records have executed so far:
	// in a canonical table, its first executed entries.
	executed   uint32
	lastWriter writerTable
}

// NewTraceBuilder starts an empty trace for the named program over the
// given static table. The trace takes the table over: the caller must not
// modify it afterwards.
func NewTraceBuilder(name string, statics []isa.Inst) *TraceBuilder {
	return &TraceBuilder{t: &Trace{name: name, statics: statics}}
}

// Append adds one dynamic execution of the static instruction at index
// static of the table. The caller supplies only what replay cannot derive:
// effAddr for memory operations (ignored otherwise), taken for conditional
// branches (ignored otherwise; unconditional transfers are always taken),
// and retPC — the architectural target — for OpRet (ignored otherwise).
//
// Append enforces trace well-formedness: the index must name a static in
// the table, either one an earlier record executed or the first one none
// has; each record's PC must equal the previous record's architectural next
// PC; and nothing may follow OpHalt.
func (b *TraceBuilder) Append(static uint32, effAddr uint64, taken bool, retPC uint64) error {
	if b.halted {
		return fmt.Errorf("emu: trace record %d follows a halt", b.seq+1)
	}
	if uint64(static) >= uint64(len(b.t.statics)) {
		return fmt.Errorf("emu: trace record %d names static %d outside a table of %d",
			b.seq+1, static, len(b.t.statics))
	}
	if static > b.executed {
		return fmt.Errorf("emu: trace record %d executes static %d before static %d: the static table is not in first-execution order",
			b.seq+1, static, b.executed)
	}
	in := &b.t.statics[static]
	// A static is validated when it first executes: the builder owns the
	// table and never changes it, so a later execution would pass again.
	if static == b.executed {
		if err := in.Validate(); err != nil {
			return err
		}
	}
	if b.seq > 0 && in.PC != b.lastPC {
		return fmt.Errorf("emu: trace record %d at pc %#x breaks control flow (expected pc %#x)",
			b.seq+1, in.PC, b.lastPC)
	}
	if static == b.executed {
		b.executed++
	}
	b.seq++
	d := b.t.recs.add()
	*d = Record{static: static, nextPC: in.NextPC(), ssnBefore: b.ssn}
	switch in.Op {
	case isa.OpLoad:
		d.effAddr = effAddr
		b.resolve(d, in.MemSize)
	case isa.OpStore:
		d.effAddr = effAddr
		b.ssn++
		b.lastWriter.record(effAddr, in.MemSize, b.seq)
	case isa.OpBranch:
		if taken {
			d.bits |= recTaken
			d.nextPC = in.Target
		}
	case isa.OpJump, isa.OpCall:
		d.bits |= recTaken
		d.nextPC = in.Target
	case isa.OpRet:
		d.bits |= recTaken
		d.nextPC = retPC
	case isa.OpHalt:
		b.halted = true
	}
	b.lastPC = d.nextPC
	return nil
}

// resolve fills in the oracle dependence of the load d, size bytes at
// d.effAddr, from the per-byte last-writer table: the youngest older store
// that wrote any of its bytes, whose SSN, address and width are read back
// from that store's own record.
func (b *TraceBuilder) resolve(d *Record, size uint8) {
	addr := d.effAddr
	var youngest uint64 // sequence number of the youngest source store
	sources := 0
	uncovered := false
	// Accesses are at most 8 bytes, so the distinct sources fit in a fixed
	// array; no per-load allocation.
	var seen [8]uint64
	for i := uint64(0); i < uint64(size); i++ {
		seq := b.lastWriter.lookup(addr + i)
		if seq == 0 {
			uncovered = true
			continue
		}
		known := false
		for j := 0; j < sources; j++ {
			if seen[j] == seq {
				known = true
				break
			}
		}
		if !known {
			seen[sources] = seq
			sources++
		}
		youngest = max(youngest, seq)
	}
	if sources == 0 {
		return
	}
	st := b.t.recs.at(youngest - 1)
	stSize := b.t.statics[st.static].MemSize
	d.depSSN = st.StoreSSN()
	d.depSeq = youngest
	d.bits |= depExists
	if sources > 1 || uncovered {
		d.bits |= depMultiSource
	}
	if addr >= st.effAddr {
		d.bits |= uint32(addr-st.effAddr) << depShiftPos
	} else {
		// Load starts before the store's first byte: necessarily multi-source.
		d.bits |= depMultiSource
	}
	if size < 8 || stSize < 8 {
		d.bits |= depPartialWord
	}
}

// Len returns the number of records appended so far.
func (b *TraceBuilder) Len() uint64 { return b.seq }

// Trace finalizes and returns the rebuilt trace. It fails on an empty trace
// and on a static table with a static no record executed. The builder must
// not be used afterwards.
func (b *TraceBuilder) Trace() (*Trace, error) {
	if b.t == nil {
		return nil, fmt.Errorf("emu: TraceBuilder.Trace called twice")
	}
	if b.t.recs.n == 0 {
		return nil, fmt.Errorf("emu: empty trace")
	}
	if n := uint32(len(b.t.statics)); b.executed < n {
		return nil, fmt.Errorf("emu: static %d of %d (pc %#x) is never executed",
			b.executed, n, b.t.statics[b.executed].PC)
	}
	t := b.t
	b.t = nil
	return t, nil
}
