package emu

import (
	"errors"

	"repro/internal/isa"
	"repro/internal/program"
)

// Trace is a fully recorded dynamic instruction stream.
//
// A sweep runs each benchmark under many machine configurations, and the
// functional emulation producing the dynamic stream is identical across all
// of them. Recording the stream once and replaying it read-only lets every
// concurrent simulation of the benchmark share one trace instead of each
// re-executing the emulator, and removes all functional-emulation work from
// the per-simulation hot path.
//
// A trace keeps each static instruction once, in a table in first-execution
// order, and one pointer-free Record per dynamic instruction that names its
// static by table index.
//
// A Trace is immutable after RecordTrace returns and safe for concurrent use
// by any number of Cursors.
type Trace struct {
	name    string
	statics []isa.Inst
	recs    records
}

// blockShift sets the record store's block size: blockLen records of
// 48 bytes each, 192 KiB per block.
const (
	blockShift = 12
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// records is a trace's append-only record store: fixed-size blocks of
// blockLen Records. It is the only code that knows the layout;
// TraceBuilder writes through add, TraceCursor reads through at.
//
// A block is never reallocated once it is full, so growing the store copies
// nothing but the first block and the small block index, and a pointer
// returned by at stays valid and equal for the trace's lifetime. The first
// block grows by doubling up to blockLen, so a short trace costs a few
// hundred bytes rather than a whole block; every later block is allocated
// whole. A Record holds no pointer, so the collector never scans a block.
type records struct {
	blocks [][]Record
	n      uint64
}

// add appends a zero record and returns it for the caller to fill in. The
// pointer is valid until the next add.
func (r *records) add() *Record {
	if r.n&blockMask == 0 {
		var b []Record
		if r.n > 0 {
			b = make([]Record, 0, blockLen)
		}
		r.blocks = append(r.blocks, b)
	}
	b := &r.blocks[len(r.blocks)-1]
	if len(*b) == cap(*b) {
		// Only the first block runs out of room before blockLen records.
		*b = append(make([]Record, 0, min(max(2*len(*b), 16), blockLen)), *b...)
	}
	*b = (*b)[:len(*b)+1]
	r.n++
	return &(*b)[len(*b)-1]
}

// at returns the record at 0-based index i < n.
func (r *records) at(i uint64) *Record {
	return &r.blocks[i>>blockShift][i&blockMask]
}

// RecordTrace executes the program to completion (or for limit dynamic
// instructions, when limit > 0) and records its dynamic stream: each
// executed instruction goes to a TraceBuilder, exactly as a decoded .nsqt
// record does.
func RecordTrace(p *program.Program, limit uint64) (*Trace, error) {
	r := newRecorder(p, limit)
	for !r.e.halted {
		err := r.step()
		if errors.Is(err, ErrLimit) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return r.b.Trace()
}

// recorder feeds an emulator's steps to a TraceBuilder, adding each program
// instruction to the trace's static table when it first executes.
type recorder struct {
	e *Emulator
	b *TraceBuilder
	// static[k] is 1 + the table index of the program's instruction k, or 0
	// while it has not executed: a program-sized slice, so the hot path
	// needs no map.
	static []uint32
}

func newRecorder(p *program.Program, limit uint64) *recorder {
	e := New(p)
	if limit > 0 && limit < e.MaxInsts {
		e.MaxInsts = limit
	}
	return &recorder{e: e, b: NewTraceBuilder(p.Name, nil), static: make([]uint32, len(p.Insts))}
}

// step executes one instruction and appends its record.
func (r *recorder) step() error {
	k, effAddr, taken, nextPC, err := r.e.exec()
	if err != nil {
		return err
	}
	if r.static[k] == 0 {
		r.b.t.statics = append(r.b.t.statics, r.e.prog.Insts[k])
		r.static[k] = uint32(len(r.b.t.statics))
	}
	return r.b.Append(r.static[k]-1, effAddr, taken, nextPC)
}

// Name returns the traced program's name.
func (t *Trace) Name() string { return t.name }

// Len returns the number of dynamic instructions in the trace.
func (t *Trace) Len() uint64 { return t.recs.n }

// Statics returns the trace's static table: every static instruction its
// records execute, once each, in first-execution order. The table is shared
// and must not be modified.
func (t *Trace) Statics() []isa.Inst { return t.statics }

// Cursor returns a replay cursor over the trace. limit bounds the number of
// instructions the cursor will serve (0 = the whole trace), which is how a
// simulation's MaxInsts bound applies to a shared recording. Each simulation
// needs its own cursor; cursors never mutate the trace.
func (t *Trace) Cursor(limit uint64) *TraceCursor {
	end := t.Len()
	if limit > 0 && limit < end {
		end = limit
	}
	return &TraceCursor{t: t, end: end}
}

// TraceCursor gives the timing model rewindable access to a recorded Trace.
// The timing model fetches along the architecturally correct path
// (oracle-path simulation); when it squashes in-flight work — on a branch
// mis-prediction or a store-load bypassing mis-prediction — it re-fetches the
// same dynamic instructions. The whole trace stays resident, so rewinding is
// free.
type TraceCursor struct {
	t   *Trace
	end uint64
}

// ErrEndOfStream is returned by TraceCursor.Get when no instruction with the
// requested sequence number exists: the program halted, or the cursor's limit
// was reached.
var ErrEndOfStream = errors.New("emu: end of dynamic instruction stream")

// Get returns the record of the dynamic instruction with sequence number
// seq (1-based), or ErrEndOfStream past the end of the (possibly
// limit-bounded) trace. The pointer is the same on every call for the same
// seq and stays valid for the trace's lifetime.
func (c *TraceCursor) Get(seq uint64) (*Record, error) {
	if seq == 0 {
		panic("emu: TraceCursor.Get with sequence number 0")
	}
	if seq > c.end {
		return nil, ErrEndOfStream
	}
	return c.t.recs.at(seq - 1), nil
}

// Static returns the static instruction of a record of the cursor's trace:
// its PC, op, registers and access width.
func (c *TraceCursor) Static(r *Record) *isa.Inst { return &c.t.statics[r.static] }

// DepStore returns the static instruction of the store a load's dependence
// names — the communicating store's PC and width — read from that store's
// own record. dep must come from a record of the cursor's trace and have
// Exists set.
func (c *TraceCursor) DepStore(dep Dependence) *isa.Inst {
	return c.Static(c.t.recs.at(dep.Seq - 1))
}
